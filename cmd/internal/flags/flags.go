// Package flags centralizes the job-spec flag surface shared by the run
// binaries (codedterasort, codedmr, coordinator, worker, sortctl). Every binary
// used to hand-roll the same dozen flag definitions; here each flag has
// one canonical name, default and usage string, and a Job folds directly
// into a cluster.Spec.
package flags

import (
	"flag"
	"time"

	"codedterasort/internal/cluster"
)

// ProcsUsage is the canonical -procs usage string; binaries with a
// different procs semantic (the worker's per-node override) pass their own.
const ProcsUsage = "per-worker compute goroutines for the map/sort/code hot paths (0 = all cores, 1 = sequential); output is identical at any setting"

// Job collects the job-spec flags. Zero value + Register* calls bind it to
// a FlagSet; after Parse, Spec() yields the cluster job spec.
type Job struct {
	K             int
	R             int
	Strategy      string
	Rows          int64
	Seed          uint64
	Skewed        bool
	Dist          string
	Partition     string
	Samples       int
	Rate          float64
	PerMsg        time.Duration
	Chunk         int
	Window        int
	MemBudget     int64
	SpillDir      string
	InDir         string
	Procs         int
	Stragglers    float64
	StragglerRank int
	Deadline      time.Duration
	MaxAttempts   int
}

// RegisterCommon binds the flags every job shape shares: cluster size,
// input description, traffic shaping, and the engine runtime's policy
// knobs (chunk streaming, memory budget, parallelism). defaultK
// parameterizes the one default the binaries disagree on.
func (j *Job) RegisterCommon(fs *flag.FlagSet, defaultK int) {
	fs.IntVar(&j.K, "k", defaultK, "number of worker nodes")
	fs.Int64Var(&j.Rows, "rows", 100000, "input size in 100-byte records")
	fs.Uint64Var(&j.Seed, "seed", 2017, "input generator seed")
	fs.BoolVar(&j.Skewed, "skewed", false, "skewed input keys (legacy; -dist skewed)")
	fs.StringVar(&j.Dist, "dist", "",
		"input key distribution: uniform (default), skewed, zipf, sorted, nearsorted, dupheavy, varprefix")
	fs.StringVar(&j.Partition, "partition", "",
		"partitioning policy: uniform (default: equal key-range splits) or sample (splitters from a deterministic input sample — balanced reducers on skewed keys)")
	fs.IntVar(&j.Samples, "samples", 0,
		"global sample size for -partition=sample (0 = default)")
	fs.Float64Var(&j.Rate, "rate", 0, "per-node egress cap in Mbps (0 = unlimited)")
	fs.DurationVar(&j.PerMsg, "permsg", 0, "fixed per-message overhead")
	fs.IntVar(&j.Chunk, "chunk", 0, "streaming pipelined shuffle chunk size in records (0 = monolithic stages)")
	fs.IntVar(&j.Window, "window", 0, "in-flight chunk window per stream (0 = engine default)")
	fs.Int64Var(&j.MemBudget, "membudget", 0, "per-worker memory budget in bytes: spill sorted runs to disk and merge-stream the reduce (0 = fully in-memory)")
	fs.StringVar(&j.SpillDir, "spilldir", "", "parent directory for spill files (default system temp)")
	j.RegisterProcs(fs, ProcsUsage)
}

// RegisterCoded binds the CodedTeraSort-only flags: the redundancy
// parameter and the placement/coding strategy.
func (j *Job) RegisterCoded(fs *flag.FlagSet, defaultR int) {
	fs.IntVar(&j.R, "r", defaultR, "redundancy parameter (each file mapped on r nodes)")
	fs.StringVar(&j.Strategy, "strategy", "",
		"placement/coding strategy: clique (the paper's scheme, default) or resolvable (q^(r-1) subfiles and far fewer groups at large K; needs K divisible by r)")
}

// RegisterFaults binds the straggler/failure-resilience flags: the
// -stragglers egress slow-down injection and the detection/recovery knobs
// of the supervised runtime.
func (j *Job) RegisterFaults(fs *flag.FlagSet) {
	fs.Float64Var(&j.Stragglers, "stragglers", 0,
		"inject one straggler: slow the straggler rank's egress by this factor (0 or 1 = healthy; effective with -rate or -permsg)")
	fs.IntVar(&j.StragglerRank, "straggler-rank", 0, "which rank the -stragglers injection slows")
	fs.DurationVar(&j.Deadline, "deadline", 0,
		"stage deadline arming straggler detection: a rank this far behind its fastest peer on a stage is declared faulty (0 = detection off)")
	fs.IntVar(&j.MaxAttempts, "max-attempts", 0,
		"recovery attempt cap for supervised local runs (0 = default: 3 with -deadline, else 1)")
}

// RegisterInDir binds the file-backed input flag (r=1 only).
func (j *Job) RegisterInDir(fs *flag.FlagSet) {
	fs.StringVar(&j.InDir, "indir", "", "read input from the part files teragen -disk wrote here instead of generating it")
}

// RegisterProcs binds only the -procs flag — the worker binary's flag
// surface, where procs overrides the coordinator-distributed setting.
func (j *Job) RegisterProcs(fs *flag.FlagSet, usage string) {
	fs.IntVar(&j.Procs, "procs", 0, usage)
}

// Spec folds the parsed flags into a job spec for the given algorithm.
// TeraSort specs (the engine at r=1) drop the redundancy and placement
// knobs so identical flag sets produce valid specs for either algorithm
// (the -compare path).
func (j *Job) Spec(alg cluster.Algorithm) cluster.Spec {
	spec := cluster.Spec{
		Algorithm: alg,
		K:         j.K, R: j.R, Placement: j.Strategy,
		Rows: j.Rows, Seed: j.Seed, Skewed: j.Skewed,
		DistName: j.Dist, Partitioning: j.Partition, SampleSize: j.Samples,
		RateMbps: j.Rate, PerMessage: j.PerMsg,
		ChunkRows: j.Chunk, Window: j.Window,
		MemBudget: j.MemBudget, SpillDir: j.SpillDir, InputDir: j.InDir,
		Parallelism:   j.Procs,
		StageDeadline: j.Deadline, MaxAttempts: j.MaxAttempts,
	}
	if j.Stragglers > 1 {
		spec.StragglerFactor = j.Stragglers
		spec.StragglerRank = j.StragglerRank
	}
	if alg == cluster.AlgTeraSort {
		spec.R, spec.Placement = 0, ""
	}
	return spec
}
