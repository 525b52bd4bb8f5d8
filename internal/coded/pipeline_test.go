package coded

import (
	"testing"

	"codedterasort/internal/engine"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/verify"
)

// TestPipelinedMatchesMonolithic: the chunked streaming shuffle must
// produce exactly the per-rank partitions of the stage-by-stage engine
// across redundancy, chunk size (including sizes larger than any stream
// and the one-record degenerate case), window and schedule, and must pass full verification against the input.
func TestPipelinedMatchesMonolithic(t *testing.T) {
	for _, c := range []struct {
		k, rows int
		seed    uint64
		rs      []int
		chunks  []int
		windows []int
	}{
		{4, 3000, 21, []int{1}, []int{1, 64, 500, 100000}, []int{1, 2, 8}},
		{5, 2500, 31, []int{1, 2, 4}, []int{1, 50, 100000}, []int{1, 3}},
	} {
		in := verify.DescribeGenerated(kv.NewGenerator(c.seed, kv.DistUniform), int64(c.rows))
		for _, r := range c.rs {
			ref := runAll(t, Config{K: c.k, R: r, Rows: int64(c.rows), Seed: c.seed})
			for _, chunkRows := range c.chunks {
				for _, window := range c.windows {
					for _, parallel := range []bool{false, true} {
						cfg := Config{K: c.k, R: r, Rows: int64(c.rows), Seed: c.seed,
							Parallel: parallel, ChunkRows: chunkRows, Window: window}
						results := run(t, cfg, nil)
						for rank := range results {
							if !results[rank].Output.Equal(ref[rank].Output) {
								t.Fatalf("K=%d r=%d chunkRows=%d window=%d parallel=%v rank %d: output differs",
									c.k, r, chunkRows, window, parallel, rank)
							}
						}
						if err := verify.SortedOutput(outputs(results), partition.NewUniform(c.k), in); err != nil {
							t.Fatalf("K=%d r=%d chunkRows=%d window=%d: %v", c.k, r, chunkRows, window, err)
						}
					}
				}
			}
		}
	}
}

// TestPipelinedChunkCounts: at r=1 chunk counters reflect the unicast
// stream structure — every (src,dst) pair exchanges ceil(ivRows/ChunkRows)
// chunks with a minimum of one per stream, and sent equals received
// cluster-wide.
func TestPipelinedChunkCounts(t *testing.T) {
	const k, rows = 3, 1200
	results := runAll(t, Config{K: k, R: 1, Rows: rows, Seed: 5, ChunkRows: 50})
	var sent, recv int64
	for rank, r := range results {
		if r.ChunksSent < int64(k-1) {
			t.Fatalf("rank %d sent %d chunks, want >= %d streams", rank, r.ChunksSent, k-1)
		}
		sent += r.ChunksSent
		recv += r.ChunksReceived
	}
	if sent != recv {
		t.Fatalf("chunks sent %d != received %d", sent, recv)
	}
	// ~400 rows per worker split over k=3 partitions at 50 rows/chunk:
	// roughly 3 chunks per stream, 6 streams per node pair direction.
	if sent < 12 {
		t.Fatalf("implausibly few chunks: %d", sent)
	}
}

// TestPipelinedChunkAccounting: at r>1 every group stream carries at least
// one chunk (empty streams close with a last-flagged chunk), the
// cluster-wide sent count matches r x received (each multicast chunk is
// received by r members), and MulticastOps tracks chunk packets.
func TestPipelinedChunkAccounting(t *testing.T) {
	cfg := Config{K: 5, R: 2, Rows: 2000, Seed: 13, ChunkRows: 40}
	results := runAll(t, cfg)
	var sent, recv int64
	for rank, res := range results {
		if res.ChunksSent < int64(res.Groups) {
			t.Fatalf("rank %d sent %d chunks over %d groups", rank, res.ChunksSent, res.Groups)
		}
		if res.MulticastOps != res.ChunksSent {
			t.Fatalf("rank %d: %d multicast ops != %d chunks", rank, res.MulticastOps, res.ChunksSent)
		}
		sent += res.ChunksSent
		recv += res.ChunksReceived
	}
	if recv != sent*int64(cfg.R) {
		t.Fatalf("chunks received %d != r x sent = %d", recv, sent*int64(cfg.R))
	}
}

// TestPipelinedEmptyStreams: zero-row inputs still close every unicast
// stream via the mandatory last-flagged empty chunk, in the chunked and
// the spill schedule.
func TestPipelinedEmptyStreams(t *testing.T) {
	for _, budget := range []int64{0, 16 * 1024} {
		results := runAll(t, Config{K: 3, R: 1, Rows: 0, Seed: 1, ChunkRows: 10, MemBudget: budget, SpillDir: t.TempDir()})
		for rank, r := range results {
			if r.Output.Len() != 0 {
				t.Fatalf("budget=%d rank %d produced %d records from empty input", budget, rank, r.Output.Len())
			}
			if r.ChunksSent != 2 || r.ChunksReceived != 2 {
				t.Fatalf("budget=%d rank %d: %d sent / %d received, want 2/2 empty closers",
					budget, rank, r.ChunksSent, r.ChunksReceived)
			}
		}
	}
}

// TestPipelinedConfigValidation: negative knobs are rejected, and the
// default window is applied only when pipelining is on.
func TestPipelinedConfigValidation(t *testing.T) {
	for _, r := range []int{1, 2} {
		if _, err := (Config{K: 3, R: r, Rows: 10, ChunkRows: -1}).normalize(); err == nil {
			t.Fatalf("r=%d: negative ChunkRows accepted", r)
		}
		if _, err := (Config{K: 3, R: r, Rows: 10, Window: -2}).normalize(); err == nil {
			t.Fatalf("r=%d: negative Window accepted", r)
		}
		c, err := (Config{K: 3, R: r, Rows: 10, ChunkRows: 5}).normalize()
		if err != nil {
			t.Fatal(err)
		}
		if c.Window != engine.DefaultWindow {
			t.Fatalf("r=%d: window defaulted to %d, want %d", r, c.Window, engine.DefaultWindow)
		}
		c, err = (Config{K: 3, R: r, Rows: 10}).normalize()
		if err != nil {
			t.Fatal(err)
		}
		if c.Window != 0 {
			t.Fatalf("r=%d: window %d set without pipelining", r, c.Window)
		}
	}
}
