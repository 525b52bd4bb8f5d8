package cluster

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
)

// TestSpillMatrix: for both algorithms across budget regimes, a MemBudget
// job must validate (via the streaming checker — outputs are never
// materialized), report per-rank checksums identical to the in-memory
// reference, and spill when the budget is far below the data.
func TestSpillMatrix(t *testing.T) {
	const k, rows, seed = 4, 4000, 91
	// TeraSort runs at r=1 and rejects any other R.
	r := map[Algorithm]int{AlgTeraSort: 0, AlgCoded: 2}
	refs := map[Algorithm]*JobReport{}
	for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
		ref, err := RunLocal(Spec{Algorithm: alg, K: k, R: r[alg], Rows: rows, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		refs[alg] = ref
	}
	for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
		for _, budget := range []int64{16 * 1024, 64 << 20} {
			for _, parallel := range []bool{false, true} {
				name := fmt.Sprintf("%s/budget=%d/parallel=%v", alg, budget, parallel)
				t.Run(name, func(t *testing.T) {
					job, err := RunLocal(Spec{
						Algorithm: alg, K: k, R: r[alg], Rows: rows, Seed: seed,
						MemBudget: budget, SpillDir: t.TempDir(),
						ParallelShuffle: parallel,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !job.Validated {
						t.Fatal("not validated")
					}
					for rank := 0; rank < k; rank++ {
						if job.Workers[rank].OutputRows != refs[alg].Workers[rank].OutputRows ||
							job.Workers[rank].OutputChecksum != refs[alg].Workers[rank].OutputChecksum {
							t.Fatalf("rank %d differs from in-memory reference", rank)
						}
						if job.Workers[rank].Output.Len() != 0 {
							t.Fatalf("rank %d materialized output in streaming mode", rank)
						}
					}
					small := budget < rows*kv.RecordSize
					if small && job.SpilledRuns == 0 {
						t.Fatal("small budget spilled nothing")
					}
					if !small && job.SpilledRuns != 0 {
						t.Fatalf("huge budget spilled %d runs", job.SpilledRuns)
					}
					if job.ChunksShuffled == 0 {
						t.Fatal("budget job reported no chunks")
					}
				})
			}
		}
	}
}

// TestSpillKeepOutput: KeepOutput forces materialization even under a
// budget (documented as defeating it) and still validates.
func TestSpillKeepOutput(t *testing.T) {
	job, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 3, Rows: 1500, Seed: 7,
		MemBudget: 8 * 1024, SpillDir: t.TempDir(), KeepOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Validated {
		t.Fatal("not validated")
	}
	var rows int64
	for _, w := range job.Workers {
		if !w.Output.IsSorted() {
			t.Fatal("kept output not sorted")
		}
		rows += int64(w.Output.Len())
	}
	if rows != 1500 {
		t.Fatalf("kept %d rows", rows)
	}
}

// writeDiskInput writes the K-part teragen -disk layout for a generated
// input and returns the directory.
func writeDiskInput(t *testing.T, k int, rows int64, seed uint64) string {
	t.Helper()
	dir := t.TempDir()
	gen := kv.NewGenerator(seed, kv.DistUniform)
	bounds := kv.SplitRows(rows, k)
	for i := 0; i < k; i++ {
		recs := gen.Generate(bounds[i], bounds[i+1]-bounds[i])
		if err := os.WriteFile(extsort.PartFile(dir, i), recs.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestInputDirEndToEnd: a job reading real input files from disk —
// in-memory and out-of-core, as TeraSort or as CodedTeraSort at r=1 —
// matches the generated-input reference rank for rank, and verification
// describes the files, not the generator.
func TestInputDirEndToEnd(t *testing.T) {
	const k, rows, seed = 4, 3000, 97
	ref, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: k, Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeDiskInput(t, k, rows, seed)
	for _, c := range []struct {
		alg    Algorithm
		r      int
		budget int64
	}{{AlgTeraSort, 0, 0}, {AlgTeraSort, 0, 16 * 1024}, {AlgCoded, 1, 0}, {AlgCoded, 1, 16 * 1024}} {
		budget := c.budget
		t.Run(fmt.Sprintf("%s/r=%d/budget=%d", c.alg, c.r, budget), func(t *testing.T) {
			spec := Spec{Algorithm: c.alg, R: c.r, K: k, InputDir: dir,
				// A wrong Seed proves verification reads the files: the
				// generator this seed selects describes different data.
				Seed: seed + 999, MemBudget: budget}
			if budget > 0 {
				spec.SpillDir = t.TempDir()
			}
			job, err := RunLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !job.Validated {
				t.Fatal("not validated")
			}
			for rank := 0; rank < k; rank++ {
				if job.Workers[rank].OutputChecksum != ref.Workers[rank].OutputChecksum {
					t.Fatalf("rank %d differs from generated reference", rank)
				}
			}
		})
	}
}

// TestSpecRedundancyRules: TeraSort is the engine at r=1, so a TeraSort
// spec accepts only R 0 or 1 rather than running uncoded whatever R says,
// and the disk-input path is defined by r=1, not by the algorithm name.
func TestSpecRedundancyRules(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string // "" = valid, else a substring of the error
	}{
		{Spec{Algorithm: AlgTeraSort, K: 4, R: 0}, ""},
		{Spec{Algorithm: AlgTeraSort, K: 4, R: 1}, ""},
		{Spec{Algorithm: AlgTeraSort, K: 4, R: 2}, "terasort runs at r=1"},
		{Spec{Algorithm: AlgTeraSort, K: 4, R: 9}, "terasort runs at r=1"},
		{Spec{Algorithm: AlgTeraSort, K: 4, R: -1}, "terasort runs at r=1"},
		{Spec{Algorithm: AlgTeraSort, K: 4, InputDir: "x"}, ""},
		{Spec{Algorithm: AlgCoded, K: 4, R: 1, InputDir: "x"}, ""},
		{Spec{Algorithm: AlgCoded, K: 4, R: 2, InputDir: "x"}, "input dir requires r=1"},
		{Spec{Algorithm: AlgCoded, K: 4, R: 4, InputDir: "x"}, "input dir requires r=1"},
		{Spec{Algorithm: AlgTeraSort, K: 3, Rows: 10, MemBudget: -1}, "negative mem budget"},
	} {
		err := c.spec.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: %v", c.spec, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want %q", c.spec, err, c.want)
		}
	}
}

// TestSpillOverTCP: the coordinator/worker runtime runs a budget job end
// to end — workers spill locally, stream through their self-checking
// sinks, and the coordinator cross-checks the reported totals.
func TestSpillOverTCP(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := Spec{Algorithm: AlgCoded, K: 3, R: 2, Rows: 3000, Seed: 4,
		MemBudget: 16 * 1024, SpillDir: t.TempDir()}
	var wg sync.WaitGroup
	for w := 0; w < spec.K; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(coord.Addr(), WorkerOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	job, err := coord.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !job.Validated {
		t.Fatal("not validated")
	}
	if job.SpilledRuns == 0 {
		t.Fatal("no spills reported over TCP")
	}
}
