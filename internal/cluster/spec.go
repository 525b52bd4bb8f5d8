// Package cluster implements the paper's system architecture (Fig 8): a
// coordinator that distributes the job specification and input placement,
// and K workers that execute the sorting stages. Two deployments share the
// same job specification:
//
//   - RunLocal: all workers as goroutines over the in-memory transport,
//     optionally traffic-shaped (the single-machine stand-in for EC2).
//   - Coordinator/Worker: separate processes; workers register with the
//     coordinator over TCP, receive rank assignments and the spec, form a
//     full TCP mesh among themselves, run, and report results back.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"codedterasort/internal/engine"
	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
)

// Algorithm selects which sorting algorithm a job runs. Both run on the
// one sort engine (internal/coded): TeraSort is CodedTeraSort at r = 1.
type Algorithm string

const (
	// AlgTeraSort is the conventional baseline (paper Section III): an
	// alias for AlgCoded at r = 1, so R must be 0 or 1.
	AlgTeraSort Algorithm = "terasort"
	// AlgCoded is CodedTeraSort (paper Section IV).
	AlgCoded Algorithm = "codedterasort"
)

// Spec is the full description of one sorting job, distributed verbatim by
// the coordinator to every worker.
type Spec struct {
	// Algorithm picks TeraSort or CodedTeraSort.
	Algorithm Algorithm `json:"algorithm"`
	// K is the number of workers.
	K int `json:"k"`
	// R is the redundancy parameter: every input file is mapped on R
	// nodes. TeraSort jobs run at R = 1 and accept only 0 or 1 here.
	R int `json:"r,omitempty"`
	// Placement names the placement/coding strategy (CodedTeraSort only):
	// "" or "clique" for the paper's scheme, "resolvable" for the
	// resolvable-design scheme that scales K past the binomial wall.
	Placement string `json:"placement,omitempty"`
	// Rows is the input size in records.
	Rows int64 `json:"rows"`
	// Seed feeds the row-addressable generator — the stand-in for the
	// coordinator physically copying input files to worker disks.
	Seed uint64 `json:"seed"`
	// Skewed selects the skewed input distribution. Superseded by
	// DistName when that is set; kept for wire compatibility.
	Skewed bool `json:"skewed,omitempty"`
	// DistName names the input key distribution ("uniform", "skewed",
	// "zipf", "sorted", "nearsorted", "dupheavy", "varprefix"); "" falls
	// back to the legacy Skewed flag.
	DistName string `json:"dist,omitempty"`
	// Partitioning selects the reducer-partitioning policy: "" or
	// "uniform" for the paper's uniform key-domain split, "sample" for the
	// pre-Map sampling round whose pooled splitters balance skewed keys.
	Partitioning string `json:"partitioning,omitempty"`
	// SampleSize is the pooled sample-size target of sampled partitioning
	// (0 = partition.DefaultSampleSize). Requires Partitioning "sample".
	SampleSize int `json:"sample_size,omitempty"`
	// Splitters carries the K-1 agreed splitter boundaries of sampled
	// partitioning, serialized with the spec (JSON base64 per boundary):
	// when the coordinator can compute them up front — any
	// generator-backed input — it distributes them here and workers skip
	// the in-graph sampling round; empty leaves the round to the engines.
	// Requires Partitioning "sample".
	Splitters [][]byte `json:"splitters,omitempty"`
	// RateMbps, when positive, rate-limits every worker's egress — the
	// paper's 100 Mbps tc configuration.
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// PerMessage is a fixed per-message overhead added by the shaper.
	PerMessage time.Duration `json:"per_message,omitempty"`
	// ParallelShuffle lifts the paper's serial one-sender-at-a-time
	// schedule (Fig 9): all nodes shuffle concurrently (the paper's
	// "Asynchronous Execution" future direction).
	ParallelShuffle bool `json:"parallel_shuffle,omitempty"`
	// StragglerFactor, when above 1, multiplies the shaped transmission
	// delays of worker StragglerRank — the slow-node injection motivated
	// by the straggler-mitigation line of coded computing the paper cites
	// ([11]). Effective only together with RateMbps or PerMessage.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	// StragglerRank selects which worker is slow.
	StragglerRank int `json:"straggler_rank,omitempty"`
	// KeepOutput retains each worker's sorted partition in its report
	// (memory-heavy; tests and examples only).
	KeepOutput bool `json:"keep_output,omitempty"`
	// ChunkRows, when positive, enables the streaming pipelined shuffle:
	// intermediate data travels in ChunkRows-record chunks with
	// Pack/Encode, Shuffle and Unpack/Decode overlapped, so peak worker
	// memory stops scaling with Rows/K. Zero keeps the monolithic
	// stage-by-stage schedule.
	ChunkRows int `json:"chunk_rows,omitempty"`
	// Window bounds unacknowledged in-flight chunks per stream when
	// pipelining (0 = engine default).
	Window int `json:"window,omitempty"`
	// MemBudget, when positive, runs every worker out-of-core: input is
	// consumed block by block, intermediate partitions spill to
	// radix-sorted on-disk runs under the per-worker byte budget, and
	// Reduce becomes a streaming loser-tree merge. Output is byte-identical
	// to the in-memory engines; verification switches to the streaming
	// checker so it stays O(1) memory too. Implies the streaming pipelined
	// shuffle (a budget-derived ChunkRows is chosen when none is set).
	MemBudget int64 `json:"mem_budget,omitempty"`
	// SpillDir is the parent directory for spill files when MemBudget is
	// positive ("" = the system temp directory).
	SpillDir string `json:"spill_dir,omitempty"`
	// InputDir, when set, reads the input from the K part-NNNNN files
	// teragen -disk wrote there, file k on worker k, instead of generating
	// it. It requires r = 1 (a file on one node's disk has no replicas to
	// code against). Rows and Seed no longer describe the data;
	// verification describes the files themselves.
	InputDir string `json:"input_dir,omitempty"`
	// Parallelism bounds each worker's compute goroutines (map scatter,
	// sort, spill-run sorting, packet encode/decode): 0 lets every worker
	// use all its cores (runtime.GOMAXPROCS), 1 forces the sequential
	// paths, higher values pin the worker count. Output is byte-identical
	// at every setting; the coordinator distributes it like MemBudget.
	Parallelism int `json:"parallelism,omitempty"`
	// Faults injects node death and slowness at chosen stages — the
	// deterministic failure model behind the straggler-detection and
	// recovery machinery (see engine.Fault). Distributed with the spec so
	// every worker agrees on which rank misbehaves where.
	Faults []FaultSpec `json:"faults,omitempty"`
	// StageDeadline, when positive, arms straggler detection: a rank that
	// has not finished a stage StageDeadline after the first rank finished
	// it is declared straggling and the attempt is canceled. RunLocal then
	// re-executes the job with the faulty rank's worker respawned (up to
	// MaxAttempts); the TCP coordinator aborts the job and fails fast with
	// the suspect named instead of hanging. The deadline must exceed the
	// natural per-stage skew of the cluster, so it is opt-in.
	StageDeadline time.Duration `json:"stage_deadline,omitempty"`
	// Heartbeat is the interval at which TCP workers send liveness frames
	// to the coordinator when StageDeadline is armed (0 derives
	// StageDeadline/3). A worker silent for a full StageDeadline is
	// declared dead even if no stage completes anywhere.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
	// MaxAttempts caps the total job executions RunLocal's recovery may
	// use (first run included). 0 derives the default: 3 when
	// StageDeadline is armed, 1 (no recovery) otherwise.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// FaultSpec is the wire form of one injected fault (see engine.Fault):
// rank Rank dies ("kill") or stalls ("slow", by Factor x stage time plus
// Delay) at the named stage ("Map", "Shuffle", ..., with "Encode"/"Decode"
// accepted for the coded columns).
type FaultSpec struct {
	Rank   int           `json:"rank"`
	Stage  string        `json:"stage"`
	Kind   string        `json:"kind"`
	Factor float64       `json:"factor,omitempty"`
	Delay  time.Duration `json:"delay,omitempty"`
}

// fault parses the wire form into the engine's fault model.
func (f FaultSpec) fault() (engine.Fault, error) {
	st, err := stats.ParseStage(f.Stage)
	if err != nil {
		return engine.Fault{}, err
	}
	var kind engine.FaultKind
	switch f.Kind {
	case "kill":
		kind = engine.FaultKill
	case "slow":
		kind = engine.FaultSlow
	default:
		return engine.Fault{}, fmt.Errorf("cluster: unknown fault kind %q (want kill or slow)", f.Kind)
	}
	return engine.Fault{Rank: f.Rank, Stage: st, Kind: kind, Factor: f.Factor, Delay: f.Delay}, nil
}

// engineFaults converts the spec's fault list for the engines, dropping
// the ranks already consumed by recovery respawns.
func (s Spec) engineFaults(consumed map[int]bool) (engine.Faults, error) {
	if len(s.Faults) == 0 {
		return nil, nil
	}
	out := make(engine.Faults, 0, len(s.Faults))
	for _, fs := range s.Faults {
		f, err := fs.fault()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	for rank := range consumed {
		out = out.Without(rank)
	}
	return out, nil
}

// attempts resolves the MaxAttempts default.
func (s Spec) attempts() int {
	if s.MaxAttempts > 0 {
		return s.MaxAttempts
	}
	if s.StageDeadline > 0 {
		return 3
	}
	return 1
}

// heartbeat resolves the Heartbeat default.
func (s Spec) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return s.StageDeadline / 3
}

// Validate checks the spec's internal consistency.
func (s Spec) Validate() error {
	switch s.Algorithm {
	case AlgTeraSort, AlgCoded:
	default:
		return fmt.Errorf("cluster: unknown algorithm %q", s.Algorithm)
	}
	if s.K <= 0 {
		return fmt.Errorf("cluster: K=%d", s.K)
	}
	if s.Algorithm == AlgTeraSort && s.R != 0 && s.R != 1 {
		return fmt.Errorf("cluster: terasort runs at r=1, have r=%d", s.R)
	}
	r := s.redundancy()
	if r < 1 || r > s.K {
		return fmt.Errorf("cluster: r=%d outside [1,%d]", r, s.K)
	}
	kind, err := placement.ParseKind(s.Placement)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if kind != placement.KindClique && s.Algorithm != AlgCoded {
		return fmt.Errorf("cluster: %s placement requires the coded algorithm", kind)
	}
	// Fail fast at submission: infeasible (K, r, strategy) combinations
	// produce a clear error here rather than a worker-side panic.
	if _, err := placement.New(kind, s.K, r); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if s.Rows < 0 {
		return fmt.Errorf("cluster: negative rows")
	}
	if s.ChunkRows < 0 {
		return fmt.Errorf("cluster: negative chunk rows")
	}
	if s.Window < 0 {
		return fmt.Errorf("cluster: negative window")
	}
	if s.MemBudget < 0 {
		return fmt.Errorf("cluster: negative mem budget")
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("cluster: negative parallelism")
	}
	if s.InputDir != "" && r != 1 {
		return fmt.Errorf("cluster: input dir requires r=1, have r=%d", r)
	}
	if s.StageDeadline < 0 {
		return fmt.Errorf("cluster: negative stage deadline")
	}
	if s.Heartbeat < 0 {
		return fmt.Errorf("cluster: negative heartbeat interval")
	}
	// The liveness rule declares a worker dead after a silent
	// StageDeadline, so heartbeats must flow faster than that or every
	// healthy worker is condemned before its first ping.
	if s.StageDeadline > 0 && s.Heartbeat >= s.StageDeadline {
		return fmt.Errorf("cluster: heartbeat interval %v not below stage deadline %v", s.Heartbeat, s.StageDeadline)
	}
	if s.MaxAttempts < 0 {
		return fmt.Errorf("cluster: negative max attempts")
	}
	if _, err := kv.ParseDistribution(s.DistName); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	pol, err := partition.ParsePolicy(s.Partitioning)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if s.SampleSize < 0 {
		return fmt.Errorf("cluster: negative sample size")
	}
	if s.SampleSize > 0 && pol != partition.PolicySample {
		return fmt.Errorf("cluster: sample size set without sample partitioning")
	}
	if len(s.Splitters) > 0 {
		if pol != partition.PolicySample {
			return fmt.Errorf("cluster: splitters set without sample partitioning")
		}
		sp, err := partition.NewSplitters(s.Splitters)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if sp.NumPartitions() != s.K {
			return fmt.Errorf("cluster: %d splitters for K=%d", len(s.Splitters), s.K)
		}
	}
	faults, err := s.engineFaults(nil)
	if err != nil {
		return err
	}
	if err := faults.Validate("cluster", s.K); err != nil {
		return err
	}
	return nil
}

// redundancy returns the r the engine runs at: 1 for TeraSort, R for
// CodedTeraSort.
func (s Spec) redundancy() int {
	if s.Algorithm == AlgTeraSort {
		return 1
	}
	return s.R
}

// Dist returns the input key distribution of the spec.
func (s Spec) Dist() kv.Distribution {
	if s.DistName != "" {
		d, err := kv.ParseDistribution(s.DistName)
		if err == nil {
			return d
		}
	}
	if s.Skewed {
		return kv.DistSkewed
	}
	return kv.DistUniform
}

// sampled reports whether the spec uses sampled partitioning. Unknown
// policy names were rejected by Validate.
func (s Spec) sampled() bool {
	return partition.Policy(s.Partitioning) == partition.PolicySample
}

// ExpectedSplitters reproduces the splitter boundaries the engines'
// sampling round will agree on, computed coordinator-side without running
// the job. The round pools the deterministic global stride sample of the
// input — the per-holder shares tile the row space, so the pooled multiset
// is a pure function of (input, sample size) alone — and selection sorts
// the pool, so replaying the same stride walk here yields byte-identical
// bounds. For InputDir jobs the part files are sampled positionally, the
// same way the workers do. Returns nil with no error when the spec does
// not use sampled partitioning.
func (s Spec) ExpectedSplitters() ([][]byte, error) {
	if !s.sampled() {
		return nil, nil
	}
	if len(s.Splitters) > 0 {
		return s.Splitters, nil
	}
	var keys []byte
	if s.InputDir != "" {
		for rank := 0; rank < s.K; rank++ {
			path := extsort.PartFile(s.InputDir, rank)
			st, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("cluster: sample input: %w", err)
			}
			rows := st.Size() / int64(kv.RecordSize)
			sampled, err := extsort.SampleFile(path, partition.SampleStride(rows*int64(s.K), s.SampleSize))
			if err != nil {
				return nil, fmt.Errorf("cluster: sample input: %w", err)
			}
			keys = append(keys, sampled.Keys()...)
		}
	} else {
		gen := kv.NewGenerator(s.Seed, s.Dist())
		stride := partition.SampleStride(s.Rows, s.SampleSize)
		rec := make([]byte, kv.RecordSize)
		for g := int64(0); g < s.Rows; g += stride {
			gen.Record(rec, g)
			keys = append(keys, rec[:kv.KeySize]...)
		}
	}
	return partition.SelectSplitters(keys, s.K)
}

// verifyPartitioner returns the partitioner output verification checks
// worker partitions against: uniform by default, the expected sampled
// splitters under the sample policy.
func (s Spec) verifyPartitioner() (partition.Partitioner, error) {
	if !s.sampled() {
		return partition.NewUniform(s.K), nil
	}
	bounds, err := s.ExpectedSplitters()
	if err != nil {
		return nil, err
	}
	sp, err := partition.NewSplitters(bounds)
	if err != nil {
		return nil, fmt.Errorf("cluster: expected splitters: %w", err)
	}
	if sp.NumPartitions() != s.K {
		return nil, fmt.Errorf("cluster: expected %d splitter partitions for K=%d", sp.NumPartitions(), s.K)
	}
	return sp, nil
}

// PlacementKind returns the parsed placement strategy of the spec; unknown
// names were rejected by Validate, so parse failures degrade to clique.
func (s Spec) PlacementKind() placement.Kind {
	kind, err := placement.ParseKind(s.Placement)
	if err != nil {
		return placement.KindClique
	}
	return kind
}

// Marshal encodes the spec for the wire.
func (s Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSpec decodes a wire spec.
func UnmarshalSpec(p []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(p, &s); err != nil {
		return Spec{}, fmt.Errorf("cluster: bad spec: %w", err)
	}
	return s, nil
}
