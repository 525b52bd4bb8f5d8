// Package mapreduce promotes the sort engine's coded shuffle into a
// general coded-MapReduce framework — the paper's "Beyond Sorting
// Algorithms" direction (Section VI) made first-class, following the Coded
// MapReduce / Fundamental-Tradeoff scheme for arbitrary map and reduce
// functions with tunable replication r.
//
// A Job pairs a user Mapper and Reducer with the shared runtime knobs and
// compiles onto the sort engine (internal/coded) at r = max(R, 1):
//
//   - uncoded (R <= 1): one input split per node, serial-unicast shuffle;
//   - coded (R >= 2): every split mapped on R nodes, coded multicast
//     shuffle moving ~1/R of the uncoded load.
//
// Either way the job inherits the engine's machinery for free: the chunked
// streaming shuffle (ChunkRows/Window), out-of-core spilling (MemBudget),
// the multicore worker kernels (Parallelism), per-stage hooks, and the
// fault-injection/recovery model. The map function runs inside the engine's
// Map stage through the Transform hook; the shuffled intermediate records
// are sorted by the engine's Reduce stage, and the framework's group-reduce
// driver consumes the sorted stream through OutputSink, invoking the
// Reducer once per key group.
//
// Determinism contract: for a fixed Job, the reduced output of every rank
// is byte-identical across uncoded and coded runs, every execution
// mode (monolithic, chunked, out-of-core), any Parallelism setting, and
// recovered re-executions — the property the mrtest harness gates for
// every registered kernel. The framework guarantees it by canonicalizing
// each key group (values presented in ascending byte order) before the
// Reducer runs, so kernels need not be order-insensitive.
package mapreduce

import (
	"fmt"

	"codedterasort/internal/coded"
	"codedterasort/internal/engine"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// Emit hands one record to the framework: a key of at most kv.KeySize bytes
// and a value of at most kv.ValueSize bytes, each zero-padded to its fixed
// width (and truncated beyond it — keys that must stay distinct must
// differ within the first kv.KeySize bytes).
type Emit func(key, value []byte)

// Mapper is the user map function: it consumes one input record and emits
// zero or more intermediate records. The same contract the engines' Filter
// hook carries applies: Map must be pure and identical on all workers,
// because under coded execution every replica of an input split must
// produce identical intermediate values for the XOR cancellation to hold.
type Mapper interface {
	Map(record []byte, emit Emit)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(record []byte, emit Emit)

// Map implements Mapper.
func (f MapperFunc) Map(record []byte, emit Emit) { f(record, emit) }

// Reducer is the user reduce function: it consumes one key group and emits
// zero or more output records. values hold the group's kv.ValueSize-byte
// values in ascending byte order (the framework canonicalizes arrival
// order, so output is deterministic for any reducer); they alias a buffer
// that dies with the call and must not be retained.
type Reducer interface {
	Reduce(key []byte, values [][]byte, emit Emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, values [][]byte, emit Emit)

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values [][]byte, emit Emit) { f(key, values, emit) }

// Identity is the pass-through Reducer: every value of the group is
// re-emitted under its key, in canonical (ascending) order — the reducer of
// selection-style jobs like Grep, whose output is the sorted matches.
var Identity Reducer = ReducerFunc(func(key []byte, values [][]byte, emit Emit) {
	for _, v := range values {
		emit(key, v)
	}
})

// Job is one MapReduce job specification. All workers must hold identical
// jobs (in-process runners share the value).
type Job struct {
	// Mapper is the map function. Required.
	Mapper Mapper
	// Reducer is the reduce function. Nil selects Identity.
	Reducer Reducer
	// K is the number of worker nodes.
	K int
	// R is the map replication factor: R >= 2 runs the job coded (every
	// input split mapped on R nodes, coded multicast shuffle); R <= 1 runs
	// it uncoded, at r = 1.
	R int
	// Input, when non-empty, is the job's input dataset. The framework
	// splits it by rows into the engine's input files: K contiguous splits
	// uncoded, C(K,R) coded — the same global row range either way, so both
	// forms map the same multiset.
	Input kv.Records
	// Rows is the generated input size in records when Input is empty
	// (TeraGen-format records from the row-addressable generator; Seed and
	// Dist select the stream). Ignored when Input is set.
	Rows int64
	// Seed feeds the generator for generated input.
	Seed uint64
	// Dist selects the generated input key distribution.
	Dist kv.Distribution
	// Part maps intermediate keys to the K reducers. Nil selects the
	// framework's hash partitioner, which spreads arbitrary (e.g. text)
	// keys evenly; kernels whose keys are uniform in the key space (Grep)
	// may install partition.NewUniform for range-partitioned output.
	// Mutually exclusive with Partitioning "sample".
	Part partition.Partitioner
	// Partitioning selects the partitioning policy ("" or "uniform" keeps
	// Part / the hash default; "sample" runs the engines' sampling round
	// over the mapped intermediate keys — the Mapper's emissions, not the
	// raw input — and partitions by the agreed splitters, range-ordering
	// the reducers by intermediate key).
	Partitioning string
	// SampleSize is the sampling round's global target sample size under
	// Partitioning "sample" (0 = partition.DefaultSampleSize).
	SampleSize int
	// Strategy selects the application-layer multicast algorithm of the
	// coded shuffle.
	Strategy transport.BcastStrategy
	// Parallel lifts the serial one-sender-at-a-time shuffle schedule.
	Parallel bool
	// ChunkRows, when positive, streams the shuffle in ChunkRows-record
	// chunks (the engines' pipelined mode).
	ChunkRows int
	// Window bounds unacknowledged in-flight chunks per stream.
	Window int
	// MemBudget, when positive, runs workers out-of-core: intermediate
	// records spill to sorted runs under the budget and the reduce stream
	// is a loser-tree merge.
	MemBudget int64
	// SpillDir is the parent directory for spill files ("" = system temp).
	SpillDir string
	// Parallelism bounds each worker's compute goroutines (0 = all cores).
	Parallelism int
	// Hooks observe each timed engine stage.
	Hooks engine.Hooks
	// Faults injects node death and slowness at chosen stages — consumed
	// by RunLocal's attempt-scoped recovery exactly as in the sorting
	// cluster runtime.
	Faults engine.Faults
}

// redundancy returns the r the engine runs at: R, with R <= 1 meaning the
// uncoded r = 1 point.
func (j Job) redundancy() int { return max(j.R, 1) }

// normalize validates the job and fills defaults.
func (j Job) normalize() (Job, error) {
	if j.Mapper == nil {
		return j, fmt.Errorf("mapreduce: job has no Mapper")
	}
	if j.Reducer == nil {
		j.Reducer = Identity
	}
	if j.K <= 0 {
		return j, fmt.Errorf("mapreduce: K=%d", j.K)
	}
	if j.R < 0 || j.R > j.K {
		return j, fmt.Errorf("mapreduce: R=%d outside [0,%d]", j.R, j.K)
	}
	if j.Input.Len() > 0 {
		j.Rows = int64(j.Input.Len())
	}
	if j.Rows < 0 {
		return j, fmt.Errorf("mapreduce: negative row count")
	}
	pol, err := partition.ParsePolicy(j.Partitioning)
	if err != nil {
		return j, fmt.Errorf("mapreduce: %w", err)
	}
	if pol == partition.PolicySample {
		// The engines' sampling round resolves the partitioner; a preset
		// one would contradict it.
		if j.Part != nil {
			return j, fmt.Errorf("mapreduce: explicit Part with Partitioning=sample")
		}
	} else if j.Part == nil {
		j.Part = NewHashPartitioner(j.K)
	}
	if j.Part != nil && j.Part.NumPartitions() != j.K {
		return j, fmt.Errorf("mapreduce: partitioner has %d partitions for K=%d", j.Part.NumPartitions(), j.K)
	}
	return j, nil
}

// transform adapts the Mapper to the engines' Transform hook: every emitted
// (key, value) pair becomes one fixed-width intermediate record, built in a
// per-call scratch buffer (the engine copies on emit).
func (j Job) transform() func(rec []byte, emit func([]byte)) {
	m := j.Mapper
	return func(rec []byte, emit func([]byte)) {
		var buf [kv.RecordSize]byte
		m.Map(rec, func(key, value []byte) {
			fillRecord(buf[:], key, value)
			emit(buf[:])
		})
	}
}

// engineInput splits Job.Input into the engine's input files along the
// placement plan's row bounds (nil Input stays nil: the engines generate).
func (j Job) engineInput() ([]kv.Records, error) {
	if j.Input.Len() == 0 {
		return nil, nil
	}
	plan, err := placement.Redundant(j.K, j.redundancy(), j.Rows)
	if err != nil {
		return nil, err
	}
	files := make([]kv.Records, plan.NumFiles())
	for i := range files {
		first, last := plan.FileRows(i)
		files[i] = j.Input.Slice(int(first), int(last))
	}
	return files, nil
}

// Result is one worker's output.
type Result struct {
	// Output is the rank's reduced output: the Reducer's emissions over
	// the sorted key groups of this rank's partition, in ascending group
	// order.
	Output kv.Records
	// Rows counts the reduced output records.
	Rows int64
	// IntermediateRows counts the sorted intermediate records that entered
	// the group-reduce driver (the engine's Reduce-stage output).
	IntermediateRows int64
	// ShuffleBytes counts shuffle payload this rank sent: unicast bytes
	// uncoded, multicast packet bytes (each packet counted once, the
	// paper's load metric) coded.
	ShuffleBytes int64
	// MulticastOps counts coded packets multicast (0 uncoded).
	MulticastOps int64
	// ChunksSent and ChunksReceived count pipelined shuffle chunks (0 when
	// ChunkRows is unset).
	ChunksSent     int64
	ChunksReceived int64
	// SpilledRuns counts sorted runs spilled to disk (0 in-memory).
	SpilledRuns int64
	// Times is the rank's engine stage breakdown.
	Times stats.Breakdown
}

// Run executes the job's worker for ep.Rank() and blocks until this rank's
// part completes. Every rank of the endpoint's world must call Run
// concurrently with an identical job. The timeline may be nil, in which
// case a wall-clock timeline is used internally.
func Run(ep transport.Endpoint, job Job, tl *stats.Timeline) (Result, error) {
	job, err := job.normalize()
	if err != nil {
		return Result{}, err
	}
	input, err := job.engineInput()
	if err != nil {
		return Result{}, err
	}
	g := newGrouper(job.Reducer)
	res, err := coded.Run(ep, coded.Config{
		K: job.K, R: job.redundancy(), Rows: job.Rows, Seed: job.Seed, Dist: job.Dist,
		Part: job.Part, Input: input,
		Partitioning: job.Partitioning, SampleSize: job.SampleSize,
		Parallel: job.Parallel, Transform: job.transform(),
		ChunkRows: job.ChunkRows, Window: job.Window,
		MemBudget: job.MemBudget, SpillDir: job.SpillDir,
		OutputSink:  g.Feed,
		Parallelism: job.Parallelism,
		Hooks:       job.Hooks, Faults: job.Faults,
	}, tl)
	if err != nil {
		return Result{}, err
	}
	return g.finish(Result{
		ShuffleBytes:   res.ShuffleBytes,
		MulticastOps:   res.MulticastOps,
		ChunksSent:     res.ChunksSent,
		ChunksReceived: res.ChunksReceived,
		SpilledRuns:    res.SpilledRuns,
		Times:          res.Times,
	}), nil
}
