package coded

import (
	"testing"
)

// TestParallelismMatchesSequential: the Parallelism knob — which
// parallelizes generation, the Map scatter, Pack/Unpack and per-group
// Algorithm 1/2 encode/decode, and the Reduce sort — must leave per-rank
// outputs byte-identical across sequential, default and
// wider-than-the-machine settings, in every mode and at every R.
func TestParallelismMatchesSequential(t *testing.T) {
	forEachRMode(t, []int{1, 2}, Config{K: 4, Rows: 3000, Seed: 17}, func(t *testing.T, cfg Config) {
		cfg.Parallelism = 1
		ref := runAll(t, cfg)
		for _, procs := range []int{0, 4} {
			cfg.Parallelism = procs
			results := runAll(t, cfg)
			for rank := range results {
				if !results[rank].Output.Equal(ref[rank].Output) {
					t.Fatalf("procs=%d rank %d: output differs from sequential", procs, rank)
				}
			}
		}
	})
}

// TestParallelismValidation: negative Parallelism is a config error.
func TestParallelismValidation(t *testing.T) {
	for _, r := range []int{1, 2} {
		if _, err := (Config{K: 2, R: r, Rows: 10, Parallelism: -1}).normalize(); err == nil {
			t.Fatalf("r=%d: negative Parallelism accepted", r)
		}
	}
}
