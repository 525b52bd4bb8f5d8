package engine

import (
	"fmt"

	"codedterasort/internal/extsort"
	"codedterasort/internal/partition"
)

// Mode is the execution mode the scheduler derives from the Policies: how
// the stage graph trades memory for overlap.
type Mode int

const (
	// ModeMono is the paper's monolithic stage-by-stage schedule: every
	// stage materializes its whole output before the next begins.
	ModeMono Mode = iota
	// ModeChunked is the streaming pipelined shuffle (the Section VII
	// "Asynchronous Execution" direction): Pack/Encode, Shuffle and
	// Unpack/Decode overlap chunk by chunk.
	ModeChunked
	// ModeSpill is the out-of-core mode: chunked streaming plus
	// budget-bounded spilling of sorted runs to disk and a streaming merge
	// Reduce.
	ModeSpill
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeMono:
		return "monolithic"
	case ModeChunked:
		return "chunked"
	case ModeSpill:
		return "spill"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeSet is a set of modes a stage participates in.
type ModeSet uint8

// In builds the set of the given modes.
func In(modes ...Mode) ModeSet {
	var s ModeSet
	for _, m := range modes {
		s |= 1 << m
	}
	return s
}

// Has reports membership.
func (s ModeSet) Has(m Mode) bool { return s&(1<<m) != 0 }

// The common stage mode sets.
var (
	// AllModes marks a stage present in every schedule.
	AllModes = In(ModeMono, ModeChunked, ModeSpill)
	// InMemory marks a stage of the fully in-memory schedules.
	InMemory = In(ModeMono, ModeChunked)
	// Streaming marks a stage of the chunk-streaming schedules.
	Streaming = In(ModeChunked, ModeSpill)
)

// DefaultWindow is the in-flight chunk window used when pipelining is
// enabled without an explicit Window.
const DefaultWindow = 4

// Policies are the scheduler knobs — the cross-cutting execution behaviors
// the graph builder leaves to the runtime.
// The zero value selects the monolithic in-memory schedule.
type Policies struct {
	// ChunkRows, when positive, streams intermediate data in
	// ChunkRows-record chunks with Pack/Encode, Shuffle and Unpack/Decode
	// overlapped (ModeChunked).
	ChunkRows int
	// Window bounds unacknowledged in-flight chunks per stream when
	// pipelining. Zero selects DefaultWindow.
	Window int
	// MemBudget, when positive, runs the worker out-of-core (ModeSpill):
	// the Context's spill sorter absorbs the node's partition under the
	// budget and Reduce becomes a streaming merge. Implies chunk streaming;
	// a budget-derived ChunkRows is chosen when none is set.
	MemBudget int64
	// SpillDir is the parent directory for spill files ("" = system temp).
	SpillDir string
	// Parallelism bounds the worker-local goroutines of the compute hot
	// paths; 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// Parallel lifts the paper's serial one-sender-at-a-time schedule:
	// Context.Schedule runs senders concurrently instead of passing the
	// rank token.
	Parallel bool
	// Faults injects node death and slowness at chosen stages — the
	// deterministic failure model behind the cluster runtime's straggler
	// detection and recovery. Empty injects nothing.
	Faults Faults
	// Partitioning selects the reducer-partitioning policy: "" or
	// "uniform" keeps the paper's uniform key-domain split; "sample" runs
	// the pre-Map sampling round that agrees on splitters from a pooled
	// key sample (see partition.Policy).
	Partitioning string
	// SampleSize is the pooled sample-size target of the "sample" policy;
	// 0 selects partition.DefaultSampleSize. Setting it under any other
	// policy is an error (the knob would silently do nothing).
	SampleSize int
}

// Sampled reports whether the partitioning policy is "sample". Callers
// must have validated the policy via Normalize first.
func (p Policies) Sampled() bool {
	return partition.Policy(p.Partitioning) == partition.PolicySample
}

// Mode derives the execution mode: MemBudget forces out-of-core, ChunkRows
// alone selects the streaming pipeline, otherwise the monolithic schedule.
func (p Policies) Mode() Mode {
	switch {
	case p.MemBudget > 0:
		return ModeSpill
	case p.ChunkRows > 0:
		return ModeChunked
	default:
		return ModeMono
	}
}

// Normalize validates the shared knobs and fills the derived defaults: a
// budget-derived ChunkRows when spilling without an explicit chunk size
// (streams = K concurrent chunk streams share the budget), the spill-block
// cap on ChunkRows, and the default window. name prefixes errors with the
// engine's package name.
func (p Policies) Normalize(name string, streams int) (Policies, error) {
	if p.ChunkRows < 0 {
		return p, fmt.Errorf("%s: negative ChunkRows", name)
	}
	if p.Window < 0 {
		return p, fmt.Errorf("%s: negative Window", name)
	}
	if p.MemBudget < 0 {
		return p, fmt.Errorf("%s: negative MemBudget", name)
	}
	if p.Parallelism < 0 {
		return p, fmt.Errorf("%s: negative Parallelism", name)
	}
	if err := p.Faults.Validate(name, streams); err != nil {
		return p, err
	}
	pol, err := partition.ParsePolicy(p.Partitioning)
	if err != nil {
		return p, fmt.Errorf("%s: %w", name, err)
	}
	if p.SampleSize < 0 {
		return p, fmt.Errorf("%s: negative SampleSize", name)
	}
	if p.SampleSize > 0 && pol != partition.PolicySample {
		return p, fmt.Errorf("%s: SampleSize set without Partitioning=sample", name)
	}
	if p.MemBudget > 0 {
		if p.ChunkRows == 0 {
			p.ChunkRows = extsort.BudgetChunkRows(p.MemBudget, streams, p.Window)
		}
		// Spool blocks and the streaming merge are framed at ChunkRows, so
		// the spill-block cap bounds it.
		if p.ChunkRows > extsort.MaxBlockRows {
			return p, fmt.Errorf("%s: ChunkRows %d exceeds spill block cap %d", name, p.ChunkRows, extsort.MaxBlockRows)
		}
	}
	if p.ChunkRows > 0 && p.Window == 0 {
		p.Window = DefaultWindow
	}
	return p, nil
}
