package coded

import (
	"bytes"
	"testing"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

func TestInjectedInputMatchesGenerated(t *testing.T) {
	// Supplying the generator's own files via Input must give outputs
	// identical to generated mode; at r=1 file k is node k's.
	const k, rows, seed = 4, 1200, 31
	for _, r := range []int{1, 2, 3} {
		plan, err := placement.Redundant(k, r, rows)
		if err != nil {
			t.Fatal(err)
		}
		gen := kv.NewGenerator(seed, kv.DistUniform)
		input := make([]kv.Records, plan.NumFiles())
		for i := range input {
			input[i] = plan.Materialize(gen, i)
		}
		genResults := runAll(t, Config{K: k, R: r, Rows: rows, Seed: seed})
		injResults := runAll(t, Config{K: k, R: r, Rows: rows, Seed: seed, Input: input})
		for rank := range genResults {
			if !genResults[rank].Output.Equal(injResults[rank].Output) {
				t.Fatalf("r=%d rank %d output differs between generated and injected input", r, rank)
			}
		}
	}
}

func TestInjectedInputValidation(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0), transport.BcastSequential)
	if _, err := Run(ep, Config{K: 2, R: 2, Input: []kv.Records{{}, {}}}, nil); err == nil {
		t.Fatalf("wrong input file count accepted (want C(2,2)=1, gave 2)")
	}
	if _, err := Run(ep, Config{K: 2, R: 1, Input: []kv.Records{{}}}, nil); err == nil {
		t.Fatalf("wrong input file count accepted (want C(2,1)=2, gave 1)")
	}
}

func TestParallelShuffleMatchesSerial(t *testing.T) {
	// Lifting the serial sender schedule of Fig 9 changes timing, never
	// output: unicast at r=1, multicast above.
	for _, c := range []struct {
		r    int
		seed uint64
	}{{1, 41}, {2, 32}} {
		base := Config{K: 5, R: c.r, Rows: 2500, Seed: c.seed}
		serial := runAll(t, base)
		par := base
		par.Parallel = true
		parallel := runAll(t, par)
		for rank := range serial {
			if !serial[rank].Output.Equal(parallel[rank].Output) {
				t.Fatalf("r=%d rank %d differs between schedules", c.r, rank)
			}
		}
	}
}

func TestParallelWithTreeMulticast(t *testing.T) {
	cfg := Config{K: 6, R: 3, Rows: 3000, Seed: 33, Parallel: true}
	results := run(t, cfg, transport.BcastBinomialTree, nil)
	all := kv.Concat(outputs(results)...)
	want := kv.NewGenerator(33, kv.DistUniform).Generate(0, 3000)
	want.Sort()
	if !all.Equal(want) {
		t.Fatalf("parallel tree multicast output wrong")
	}
}

func TestFilterGrep(t *testing.T) {
	// The "Beyond Sorting" hook: only matching records survive, and the
	// distributed result equals a sequential filter+sort — uncoded grep at
	// r=1, coded grep above.
	const k, rows = 4, 4000
	for _, c := range []struct {
		r       int
		seed    uint64
		pattern string
	}{{1, 42, "XY"}, {2, 34, "AB"}, {3, 34, "AB"}} {
		match := func(rec []byte) bool { return bytes.Contains(rec[kv.KeySize:], []byte(c.pattern)) }
		results := runAll(t, Config{K: k, R: c.r, Rows: rows, Seed: c.seed, Filter: match})
		got := kv.Concat(outputs(results)...)

		data := kv.NewGenerator(c.seed, kv.DistUniform).Generate(0, rows)
		want := kv.MakeRecords(0)
		for i := 0; i < data.Len(); i++ {
			if match(data.Record(i)) {
				want = want.Append(data.Record(i))
			}
		}
		want.Sort()
		if !got.Equal(want) {
			t.Fatalf("r=%d grep: %d records, want %d", c.r, got.Len(), want.Len())
		}
		if want.Len() == 0 {
			t.Fatalf("degenerate test: no matches")
		}
	}
}

func TestFilterRejectAll(t *testing.T) {
	for _, r := range []int{1, 2} {
		results := runAll(t, Config{K: 4, R: r, Rows: 400, Seed: 35,
			Filter: func([]byte) bool { return false }})
		for rank, res := range results {
			if res.Output.Len() != 0 {
				t.Fatalf("r=%d rank %d produced %d records under reject-all filter", r, rank, res.Output.Len())
			}
		}
	}
}

func TestFilterShrinksShuffle(t *testing.T) {
	const k, rows, seed = 4, 4000, 43
	for _, r := range []int{1, 2} {
		full := runAll(t, Config{K: k, R: r, Rows: rows, Seed: seed})
		filtered := runAll(t, Config{K: k, R: r, Rows: rows, Seed: seed,
			Filter: func(rec []byte) bool { return rec[0] < 0x20 }}) // ~1/8 of records
		var fullBytes, filteredBytes int64
		for i := range full {
			fullBytes += full[i].ShuffleBytes
			filteredBytes += filtered[i].ShuffleBytes
		}
		if filteredBytes*4 >= fullBytes {
			t.Fatalf("r=%d: filtered shuffle %d not much smaller than full %d", r, filteredBytes, fullBytes)
		}
	}
}

func TestGroupTagUniqueness(t *testing.T) {
	// Tags must be unique across (stage, group, root) triples for the
	// largest evaluated configuration (K=20, r=5: 38760 groups).
	seen := map[transport.Tag]bool{}
	groups := combin.Subsets(combin.Range(12), 4)
	for _, g := range groups {
		gr := combin.Rank(g)
		for _, root := range g.Members() {
			for _, stage := range []uint8{tagCodeGen, tagMulticast} {
				tag := groupTag(stage, gr, root)
				if seen[tag] {
					t.Fatalf("tag collision for group %v root %d stage %#x", g, root, stage)
				}
				seen[tag] = true
			}
		}
	}
}
