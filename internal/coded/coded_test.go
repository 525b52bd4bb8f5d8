package coded

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/verify"
)

// run executes a full job over an in-memory mesh whose collectives use the
// given multicast strategy. perRank, when non-nil, adjusts each rank's copy
// of the config (budget tests install per-rank output sinks, which must not
// be shared).
func run(t *testing.T, cfg Config, strategy transport.BcastStrategy, perRank func(rank int, c *Config)) []Result {
	t.Helper()
	mesh := memnet.NewMesh(cfg.K)
	defer mesh.Close()
	results := make([]Result, cfg.K)
	errs := make([]error, cfg.K)
	var wg sync.WaitGroup
	for r := 0; r < cfg.K; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := cfg
			if perRank != nil {
				perRank(rank, &c)
			}
			ep := transport.WithCollectives(mesh.Endpoint(rank), strategy)
			results[rank], errs[rank] = Run(ep, c, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

// runAll is run with serial multicast and one shared config.
func runAll(t *testing.T, cfg Config) []Result {
	t.Helper()
	return run(t, cfg, transport.BcastSequential, nil)
}

func outputs(results []Result) []kv.Records {
	out := make([]kv.Records, len(results))
	for i, r := range results {
		out[i] = r.Output
	}
	return out
}

// modes are the engine's three execution schedules: the paper's
// stage-by-stage one, the chunk-streaming pipeline, and the out-of-core
// spill path (a budget well below the data, so runs really spill).
var modes = []struct {
	name string
	set  func(t *testing.T, c *Config)
}{
	{"mono", func(*testing.T, *Config) {}},
	{"chunked", func(_ *testing.T, c *Config) { c.ChunkRows = 97 }},
	{"spill", func(t *testing.T, c *Config) { c.MemBudget, c.SpillDir = 16*1024, t.TempDir() }},
}

// forEachRMode runs body as a subtest for every R in rs under every mode,
// with cfg.R and the mode's knobs set. R = 1 is the TeraSort baseline.
func forEachRMode(t *testing.T, rs []int, base Config, body func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, r := range rs {
		for _, m := range modes {
			t.Run(fmt.Sprintf("r=%d/%s", r, m.name), func(t *testing.T) {
				cfg := base
				cfg.R = r
				m.set(t, &cfg)
				body(t, cfg)
			})
		}
	}
}

func TestEndToEndSortsCorrectly(t *testing.T) {
	forEachRMode(t, []int{1, 2, 3}, Config{K: 4, Rows: 4200, Seed: 1}, func(t *testing.T, cfg Config) {
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(1, kv.DistUniform), cfg.Rows)
		if err := verify.SortedOutput(outputs(results), partition.NewUniform(4), in); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMatchesSequentialSort(t *testing.T) {
	want := kv.NewGenerator(7, kv.DistUniform).Generate(0, 1200)
	want.Sort()
	forEachRMode(t, []int{1, 2, 3}, Config{K: 4, Rows: 1200, Seed: 7}, func(t *testing.T, cfg Config) {
		if !kv.Concat(outputs(runAll(t, cfg))...).Equal(want) {
			t.Fatalf("distributed output != sequential sort")
		}
	})
}

func TestMatchesTeraSortOutput(t *testing.T) {
	// CodedTeraSort and its r=1 TeraSort point must produce identical
	// per-partition outputs for the same input and partitioner.
	const k, rows, seed = 5, 2500, 42
	codedRes := runAll(t, Config{K: k, R: 3, Rows: rows, Seed: seed})
	teraRes := runAll(t, Config{K: k, R: 1, Rows: rows, Seed: seed})
	for rank := 0; rank < k; rank++ {
		if !codedRes[rank].Output.Equal(teraRes[rank].Output) {
			t.Fatalf("partition %d differs between r=3 and r=1", rank)
		}
	}
}

func TestVariousClusterSizes(t *testing.T) {
	for _, k := range []int{1, 2, 5, 8, 16} {
		for _, r := range []int{1, 2} {
			if r > k {
				continue
			}
			cfg := Config{K: k, R: r, Rows: int64(200 * k), Seed: uint64(k)}
			results := runAll(t, cfg)
			in := verify.DescribeGenerated(kv.NewGenerator(uint64(k), kv.DistUniform), cfg.Rows)
			if err := verify.SortedOutput(outputs(results), partition.NewUniform(k), in); err != nil {
				t.Fatalf("K=%d r=%d: %v", k, r, err)
			}
		}
	}
}

func TestAllRedundancyLevels(t *testing.T) {
	// r = 1 (no coding benefit: the unicast TeraSort shuffle) through
	// r = K (everything local, nothing shuffled).
	const k, rows = 5, 1500
	for r := 1; r <= k; r++ {
		cfg := Config{K: k, R: r, Rows: rows, Seed: uint64(r)}
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(uint64(r), kv.DistUniform), rows)
		if err := verify.SortedOutput(outputs(results), partition.NewUniform(k), in); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if r == 1 || r == k {
			for _, res := range results {
				if res.MulticastOps != 0 {
					t.Fatalf("r=%d should multicast nothing, got %d ops", r, res.MulticastOps)
				}
			}
		}
	}
}

func TestBothMulticastStrategies(t *testing.T) {
	for _, s := range []transport.BcastStrategy{transport.BcastSequential, transport.BcastBinomialTree} {
		cfg := Config{K: 6, R: 3, Rows: 3000, Seed: 99}
		results := run(t, cfg, s, nil)
		in := verify.DescribeGenerated(kv.NewGenerator(99, kv.DistUniform), cfg.Rows)
		if err := verify.SortedOutput(outputs(results), partition.NewUniform(6), in); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	// Empty input and fewer rows than nodes (files, partitions and streams
	// go empty) at every R and in every mode.
	for _, k := range []int{4, 8} {
		for _, rows := range []int64{0, 1, 3, 5} {
			forEachRMode(t, []int{1, 2, 3}, Config{K: k, Rows: rows, Seed: 3}, func(t *testing.T, cfg Config) {
				results := runAll(t, cfg)
				in := verify.DescribeGenerated(kv.NewGenerator(3, kv.DistUniform), rows)
				if err := verify.SortedOutput(outputs(results), partition.NewUniform(k), in); err != nil {
					t.Fatalf("K=%d rows=%d: %v", k, rows, err)
				}
			})
		}
	}
}

func TestSkewedInputWithSampledPartitioner(t *testing.T) {
	// Production TeraSort practice: sample, then range-partition. The run
	// must stay correct under heavy key skew at every R.
	const k, rows = 4, 4000
	sample := kv.NewGenerator(9, kv.DistSkewed).Generate(0, 400)
	part, err := partition.FromSample(sample, k)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{K: k, Rows: rows, Seed: 9, Dist: kv.DistSkewed, Part: part}
	forEachRMode(t, []int{1, 2, 3}, base, func(t *testing.T, cfg Config) {
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(9, kv.DistSkewed), rows)
		if err := verify.SortedOutput(outputs(results), part, in); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGroupCount(t *testing.T) {
	// Each node belongs to C(K-1, r) multicast groups; at r=1 no CodeGen
	// runs and no groups form.
	cfg := Config{K: 6, R: 2, Rows: 600, Seed: 1}
	results := runAll(t, cfg)
	want := int(combin.Binomial(5, 2))
	for rank, res := range results {
		if res.Groups != want {
			t.Fatalf("rank %d in %d groups, want %d", rank, res.Groups, want)
		}
		if res.MulticastOps != int64(want) {
			t.Fatalf("rank %d multicast %d packets, want %d", rank, res.MulticastOps, want)
		}
	}
	cfg.R = 1
	for rank, res := range runAll(t, cfg) {
		if res.Groups != 0 {
			t.Fatalf("r=1 rank %d in %d groups, want 0", rank, res.Groups)
		}
	}
}

func TestShuffleBytesMatchTheory(t *testing.T) {
	// At r=1 the total shuffled payload is ~(K-1)/K of the input bytes
	// plus the 4-byte pack headers (the paper's uncoded communication
	// load).
	results := runAll(t, Config{K: 4, R: 1, Rows: 4000, Seed: 11})
	var total int64
	for _, r := range results {
		total += r.ShuffleBytes
	}
	inputBytes := int64(4000 * kv.RecordSize)
	want := inputBytes * 3 / 4
	headers := int64(4 * 3 * 4) // K*(K-1) packed IVs, 4-byte headers
	if total < want-inputBytes/10 || total > want+inputBytes/10+headers {
		t.Fatalf("shuffled %d bytes, want about %d", total, want)
	}
}

func TestMulticastLoadBeatsUncodedByR(t *testing.T) {
	// The headline result: total multicast payload (counted once per
	// packet) is ~1/r of what TeraSort-style unicast would move for the
	// same placement-adjusted demand: D*(1-r/K)/r vs D*(K-1)/K.
	const k, rows, seed = 6, 12000, 5
	dataBytes := int64(rows * kv.RecordSize)
	teraBytes := dataBytes * int64(k-1) / int64(k)
	for r := 2; r <= 4; r++ {
		results := runAll(t, Config{K: k, R: r, Rows: rows, Seed: seed})
		var coded int64
		for _, res := range results {
			coded += res.ShuffleBytes
		}
		wantLoad := float64(dataBytes) * (1 - float64(r)/float64(k)) / float64(r)
		if f := float64(coded); f < wantLoad*0.95 || f > wantLoad*1.15 {
			t.Fatalf("r=%d: multicast bytes %d, theory %.0f", r, coded, wantLoad)
		}
		gain := float64(teraBytes) / float64(coded)
		// Effective gain over TeraSort: r * ((K-1)/K) / (1-r/K); padding
		// and headers erode it slightly.
		wantGain := float64(r) * (float64(k-1) / float64(k)) / (1 - float64(r)/float64(k))
		if gain < wantGain*0.85 || gain > wantGain*1.1 {
			t.Fatalf("r=%d: load gain %.2f, want about %.2f", r, gain, wantGain)
		}
	}
}

func TestFig5RelevantIVFiltering(t *testing.T) {
	// Paper Fig 5 (K=4, r=2), node 0 (paper's Node 1) maps file {0,1}:
	// it keeps I^0, I^2, I^3 of that file and drops I^1, which node 1
	// computes locally.
	plan, err := placement.Redundant(4, 2, 1200)
	if err != nil {
		t.Fatal(err)
	}
	gen := kv.NewGenerator(4, kv.DistUniform)
	store := MapFiles(plan, partition.NewUniform(4), gen, 0)
	file := combin.NewSet(0, 1)
	if store.IV(0, file).Len() == 0 && store.IV(2, file).Len() == 0 && store.IV(3, file).Len() == 0 {
		t.Fatalf("expected kept IVs for file %v", file)
	}
	if _, dropped := store[codec.IVKey{Part: 1, File: file}]; dropped {
		t.Fatalf("I^1_{0,1} should be dropped at node 0")
	}
	// Node 0 stores files {0,1},{0,2},{0,3} only.
	for key := range store {
		if !key.File.Contains(0) {
			t.Fatalf("node 0 holds IV of foreign file %v", key.File)
		}
	}
}

func TestMapKeepsCompleteCoverage(t *testing.T) {
	// Union over nodes of kept IVs must cover every (partition, file) pair
	// needed in Reduce: for each file S and partition q, either q's node
	// is in S (q's own Map kept it) or every node of S kept it for coding.
	const k, r = 5, 2
	plan, err := placement.Redundant(k, r, 2000)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.NewUniform(k)
	stores := make([]codec.IVMap, k)
	for rank := 0; rank < k; rank++ {
		stores[rank] = MapFiles(plan, part, kv.NewGenerator(11, kv.DistUniform), rank)
	}
	for _, fileSet := range plan.Files {
		for q := 0; q < k; q++ {
			holders := 0
			for _, rank := range fileSet.Members() {
				if _, ok := stores[rank][codec.IVKey{Part: q, File: fileSet}]; ok {
					holders++
				}
			}
			if fileSet.Contains(q) {
				// q's reducer keeps its own copy; others in S drop it.
				if holders != 1 {
					t.Fatalf("I^%d_%v held by %d nodes, want 1", q, fileSet, holders)
				}
			} else if holders != r {
				t.Fatalf("I^%d_%v held by %d nodes, want %d", q, fileSet, holders, r)
			}
		}
	}
}

func TestStageTimesPopulated(t *testing.T) {
	// CodeGen runs only for coded shuffles (r > 1); every schedule times
	// its Reduce.
	forEachRMode(t, []int{1, 2, 3}, Config{K: 4, Rows: 2000, Seed: 2}, func(t *testing.T, cfg Config) {
		for rank, res := range runAll(t, cfg) {
			if codeGen := res.Times[stats.StageCodeGen]; (cfg.R > 1) != (codeGen > 0) {
				t.Fatalf("rank %d CodeGen time %v at r=%d", rank, codeGen, cfg.R)
			}
			if res.Times[stats.StageReduce] <= 0 {
				t.Fatalf("rank %d Reduce time missing", rank)
			}
		}
	})
}

func TestConfigValidation(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0), transport.BcastSequential)
	bad := []Config{
		{K: 0, R: 1},
		{K: 2, R: 0},
		{K: 2, R: 3},
		{K: 2, R: 1, Rows: -1},
		{K: 2, R: 2, Rows: -5},
		{K: 3, R: 1, Rows: 10}, // world-size mismatch
		{K: 2, R: 1, Part: partition.NewUniform(7)},
		{K: 2, R: 2, Part: partition.NewUniform(5)},
		{K: 2, R: 1, Placement: placement.KindResolvable}, // resolvable needs r >= 2
	}
	for i, cfg := range bad {
		if _, err := Run(ep, cfg, nil); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestTransportFailureSurfaces(t *testing.T) {
	// A send failure mid-shuffle must produce an error mentioning the
	// rank, not a hang or silent corruption, on either shuffle topology.
	for _, c := range []struct{ k, r, failAfter int }{{3, 1, 3}, {4, 1, 3}, {4, 2, 2}} {
		mesh := memnet.NewMesh(c.k)
		cfg := Config{K: c.k, R: c.r, Rows: 400, Seed: 3}
		rank0Err := make(chan error, 1)
		var wg sync.WaitGroup
		go func() {
			conn := netem.Fail(mesh.Endpoint(0), c.failAfter, transport.ErrClosed)
			ep := transport.WithCollectives(conn, transport.BcastSequential)
			_, err := Run(ep, cfg, nil)
			rank0Err <- err
		}()
		for r := 1; r < c.k; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ep := transport.WithCollectives(mesh.Endpoint(rank), transport.BcastSequential)
				// Errors here are expected: the cluster is going down.
				_, _ = Run(ep, cfg, nil)
			}(r)
		}
		err0 := <-rank0Err
		// Tear the mesh down to release peers blocked on the dead rank.
		mesh.Close()
		wg.Wait()
		if err0 == nil {
			t.Fatalf("K=%d r=%d: rank 0 should have failed", c.k, c.r)
		}
		if !strings.Contains(err0.Error(), "rank 0") {
			t.Fatalf("K=%d r=%d: error lacks context: %v", c.k, c.r, err0)
		}
	}
}

func TestLargerClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// K=8, r=3: 56 files, 70 groups — a mid-scale structural exercise.
	cfg := Config{K: 8, R: 3, Rows: 8000, Seed: 17}
	results := runAll(t, cfg)
	in := verify.DescribeGenerated(kv.NewGenerator(17, kv.DistUniform), cfg.Rows)
	if err := verify.SortedOutput(outputs(results), partition.NewUniform(8), in); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunK4(b *testing.B) {
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			cfg := Config{K: 4, R: r, Rows: 20000, Seed: 1}
			for i := 0; i < b.N; i++ {
				mesh := memnet.NewMesh(cfg.K)
				var wg sync.WaitGroup
				for rank := 0; rank < cfg.K; rank++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						ep := transport.WithCollectives(mesh.Endpoint(rank), transport.BcastSequential)
						if _, err := Run(ep, cfg, nil); err != nil {
							b.Error(err)
						}
					}(rank)
				}
				wg.Wait()
				mesh.Close()
			}
		})
	}
}
