package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"codedterasort/internal/coded"
	"codedterasort/internal/engine"
	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/verify"
)

// WorkerReport is one worker's result summary.
type WorkerReport struct {
	Rank int
	// Times is the worker's stage breakdown.
	Times stats.Breakdown
	// OutputRows and OutputChecksum summarize the sorted partition.
	OutputRows     int64
	OutputChecksum uint64
	// SentPayloadBytes counts shuffle payload this worker pushed:
	// unicast bytes at r = 1 (TeraSort), multicast packet bytes (counted
	// once per packet, the paper's load metric) above.
	SentPayloadBytes int64
	// MulticastOps counts coded packets this worker multicast (0 at
	// r = 1).
	MulticastOps int64
	// ChunksSent and ChunksReceived count pipelined shuffle chunks this
	// worker exchanged (0 when Spec.ChunkRows is unset).
	ChunksSent     int64
	ChunksReceived int64
	// SpilledRuns counts the sorted runs this worker spilled to disk
	// (0 unless Spec.MemBudget forced it out of core).
	SpilledRuns int64
	// Spill accounts the worker's spill volume (runs + shuffle spools):
	// raw record bytes vs framed on-disk bytes; the gap is the compact
	// spill-block format's I/O saving.
	Spill stats.SpillStats
	// MergeOVCDecided and MergeFullCompares are the out-of-core merge's
	// loser-tree match counters: matches decided by cached offset-value
	// codes alone vs matches that fell through to key bytes.
	MergeOVCDecided   int64
	MergeFullCompares int64
	// WireBytes counts bytes that actually crossed the transport,
	// including the per-receiver copies of application-layer multicast
	// and control traffic (tokens, barriers, handshakes).
	WireBytes int64
	// SplitterBounds is the splitter set this worker partitioned by when
	// the job ran under sampled partitioning (nil under uniform). Every
	// worker must report the same bounds — the coordinator cross-checks.
	SplitterBounds [][]byte
	// SampleRoundBytes counts this worker's share of the sampling round's
	// wire traffic (gathered sample keys, or the broadcast bounds at the
	// root). 0 under uniform partitioning or preset splitters.
	SampleRoundBytes int64
	// Output is the sorted partition itself when Spec.KeepOutput is set.
	Output kv.Records
}

// JobReport aggregates a completed job.
type JobReport struct {
	Spec    Spec
	Workers []WorkerReport
	// Times is the cluster-level breakdown: per-stage maximum over
	// workers, matching how the paper reports synchronized stage times.
	Times stats.Breakdown
	// ShuffleLoadBytes is the total shuffle payload (multicast counted
	// once) — the communication load the theory bounds.
	ShuffleLoadBytes int64
	// ChunksShuffled is the total pipelined chunk count across workers
	// (0 when Spec.ChunkRows is unset).
	ChunksShuffled int64
	// SpilledRuns is the total external-sort runs spilled across workers.
	SpilledRuns int64
	// Spill is the total spill volume across workers, raw vs on disk.
	Spill stats.SpillStats
	// MergeOVCDecided and MergeFullCompares total the workers' out-of-core
	// merge match counters (offset-value-code decisions vs full key
	// compares).
	MergeOVCDecided   int64
	MergeFullCompares int64
	// WireBytes is the total transport-level traffic.
	WireBytes int64
	// SampleRoundBytes totals the sampling round's wire traffic across
	// workers (0 under uniform partitioning or preset splitters).
	SampleRoundBytes int64
	// Validated is set when the job's output passed verification against
	// the input multiset and ordering invariants.
	Validated bool
	// Stages is the cluster-wide stage timeline, recorded through the
	// engine runtime's per-stage hooks: every worker's completed stages in
	// completion order, attempt-tagged across recovery re-executions
	// (in-process runs only).
	Stages []trace.StageRecord
	// Attempts counts the job executions recovery used (1 = ran clean).
	Attempts int
	// Recovered lists the faults detected and recovered from, in detection
	// order (empty when the job ran clean).
	Recovered []Suspect
}

// Total returns the cluster-level total execution time.
func (j JobReport) Total() float64 { return j.Times.Total().Seconds() }

// RunLocal executes the job with all K workers in this process over the
// in-memory transport, optionally traffic-shaped per the spec. Outputs are
// verified against the input (order, partition membership, multiset
// equality) before the report is returned. With MemBudget set (and
// KeepOutput unset, which defeats the point of a budget) the sorted
// partitions are never materialized: each worker streams its output blocks
// into a verify.PartitionChecker, so verification itself runs in O(block)
// memory.
//
// RunLocal is also the supervised deployment: it detects dead and
// straggling workers (crash signals always; peer-relative stage deadlines
// when Spec.StageDeadline is armed) and recovers by attempt-scoped
// re-execution — the attempt is canceled, which unblocks every peer stuck
// at the faulty rank's barrier, and the job re-runs with the faulty rank's
// worker respawned, up to Spec.MaxAttempts. Recovered jobs produce output
// byte-identical to a clean run; the attempt history is reported in
// Attempts/Recovered and the attempt-tagged stage log.
func RunLocal(spec Spec) (*JobReport, error) {
	return RunLocalOpts(context.Background(), spec, Options{})
}

// Options tunes a supervised in-process run beyond what the wire-portable
// Spec carries: live observation and executor placement. The zero value
// reproduces RunLocal exactly.
type Options struct {
	// OnStage, when non-nil, receives every completed stage record as it
	// is logged, across all ranks and recovery attempts — the live feed a
	// serving layer turns into job progress and metrics. It runs on worker
	// goroutines, so it must be cheap and safe for concurrent use.
	OnStage func(trace.StageRecord)
	// spawn runs one rank lifecycle; nil spawns a fresh goroutine per
	// rank per attempt. A Pool lease sets it so rank lifecycles execute on
	// reusable pooled executors instead.
	spawn func(task func())
	// mux, when above 1, multiplexes that many logical ranks onto each
	// spawned executor: rank lifecycles are batched and every batch runs
	// its ranks as goroutines inside one executor task. This is what lets
	// a K=64..128 job run on a pool of a few executors — ranks block on
	// the in-memory transport, not on executor slots, so batching cannot
	// deadlock. Ignored without spawn.
	mux int
}

// startTasks launches every rank lifecycle of an attempt through the
// configured spawner. Without a spawner each task gets its own goroutine;
// with one, tasks are batched mux ranks per executor.
func (o Options) startTasks(tasks []func()) {
	if o.spawn == nil {
		for _, task := range tasks {
			go task()
		}
		return
	}
	batch := o.mux
	if batch < 1 {
		batch = 1
	}
	for lo := 0; lo < len(tasks); lo += batch {
		hi := lo + batch
		if hi > len(tasks) {
			hi = len(tasks)
		}
		group := tasks[lo:hi]
		o.spawn(func() {
			var wg sync.WaitGroup
			for _, task := range group {
				wg.Add(1)
				go func(task func()) {
					defer wg.Done()
					task()
				}(task)
			}
			wg.Wait()
		})
	}
}

// RunLocalOpts is RunLocal with cancellation and run options. Canceling
// ctx checkpoint-cancels the job: the current attempt's mesh is closed,
// which unblocks every rank at its next transport operation exactly like
// fault recovery's attempt cancelation, and the job returns ctx's error
// instead of recovering. Long-lived callers (the sortd service) use it to
// drain without waiting out a slow job.
func RunLocalOpts(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// One stage log spans all attempts, so the recovery timeline (failed
	// attempts' partial records included) survives into the report.
	stageLog := trace.NewStageLog(stats.NewWallClock())
	if opts.OnStage != nil {
		stageLog.Observe(opts.OnStage)
	}
	maxAttempts := spec.attempts()
	consumed := map[int]bool{}
	var recovered []Suspect
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: job canceled: %w", err)
		}
		job, suspects, err := runAttempt(ctx, spec, opts, consumed, attempt, stageLog)
		if err == nil {
			job.Attempts = attempt
			job.Recovered = recovered
			job.Stages = stageLog.Records()
			return job, nil
		}
		if len(suspects) == 0 {
			// A genuine failure, not a detected fault: no recovery.
			return nil, err
		}
		if allFailed(suspects) {
			// A worker exited with its own error (bad input file,
			// unwritable spill dir): the cancel already unblocked its
			// peers, but re-executing a deterministic failure only wastes
			// attempts — surface the error instead of recovering.
			return nil, err
		}
		recovered = append(recovered, suspects...)
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("cluster: job failed after %d attempt(s), unrecovered faults %v: %w",
				attempt, suspects, err)
		}
		// Respawn: replacement workers take over the detected ranks, so
		// their injected faults are consumed and do not strike again.
		for _, s := range suspects {
			consumed[s.Rank] = true
		}
		stageLog.NewAttempt()
	}
}

// allFailed reports whether every suspect is a genuine worker error
// rather than a death or straggle — the unrecoverable kind.
func allFailed(suspects []Suspect) bool {
	for _, s := range suspects {
		if s.Reason != "failed" {
			return false
		}
	}
	return true
}

// runAttempt executes one supervised attempt. On a detected fault it
// returns the suspects alongside the error; an error with no suspects is a
// genuine (unrecoverable) failure.
func runAttempt(ctx context.Context, spec Spec, opts Options, consumed map[int]bool, attempt int, stageLog *trace.StageLog) (*JobReport, []Suspect, error) {
	faults, err := spec.engineFaults(consumed)
	if err != nil {
		return nil, nil, err
	}
	mesh := memnet.NewMesh(spec.K)
	defer mesh.Close()

	// Cancellation rides the recovery machinery: closing the mesh unblocks
	// every rank at its next transport operation with ErrClosed, the same
	// way a detected fault cancels an attempt.
	stopCancel := context.AfterFunc(ctx, func() { mesh.Close() })
	defer stopCancel()

	// Detection: crash signals from worker goroutines plus the
	// peer-relative stage deadline; cancel closes the mesh, unblocking
	// every rank stuck on the faulty one with ErrClosed.
	mon := newMonitor(spec.K, spec.StageDeadline, false, attempt, func() { mesh.Close() })
	mon.Watch()
	defer mon.Stop()

	streaming := spec.MemBudget > 0 && !spec.KeepOutput
	var checkers []*verify.PartitionChecker
	if streaming {
		// Under sampled partitioning the checkers verify against the
		// splitters the round is expected to agree on — recomputed here
		// from the input alone, so a run that drifts from the
		// deterministic sample fails verification.
		p, err := spec.verifyPartitioner()
		if err != nil {
			return nil, nil, err
		}
		checkers = make([]*verify.PartitionChecker, spec.K)
		for r := 0; r < spec.K; r++ {
			checkers[r] = verify.NewPartitionChecker(p, r)
		}
	}

	reports := make([]WorkerReport, spec.K)
	errs := make([]error, spec.K)
	outputs := make([]kv.Records, spec.K)
	var wg sync.WaitGroup
	tasks := make([]func(), spec.K)
	for r := 0; r < spec.K; r++ {
		wg.Add(1)
		rank := r
		tasks[rank] = func() {
			defer wg.Done()
			var conn transport.Conn = mesh.Endpoint(rank)
			if spec.RateMbps > 0 || spec.PerMessage > 0 {
				opts := netem.Options{RateMbps: spec.RateMbps, PerMessage: spec.PerMessage}
				if spec.StragglerFactor > 1 && rank == spec.StragglerRank {
					opts.SlowFactor = spec.StragglerFactor
				}
				conn = netem.Limit(conn, opts)
			}
			meter := transport.NewMeter(conn)
			ep := transport.WithCollectives(meter, spec.Strategy())
			var sink func(kv.Records) error
			if streaming {
				sink = checkers[rank].Feed
			}
			hooks := engine.Hooks{StageEnd: func(ev engine.StageEvent) {
				stageLog.Record(ev.Rank, ev.Stage, ev.Elapsed, ev.Err)
				if ev.Err == nil {
					mon.StageEnd(ev.Rank, ev.Stage)
				}
			}}
			rep, out, err := runWorker(ep, spec, faults, sink, hooks)
			if err != nil {
				errs[rank] = err
				// Any exited worker strands its peers at a barrier or a
				// pending receive, so every worker error cancels the
				// attempt (the supervisor's crash signal; over TCP it is
				// the worker's broken coordinator connection). A killed
				// rank is recorded as a death; a genuine error as a
				// failure — but first-detection freezing means casualties
				// of the cancellation itself are never blamed.
				var killed *engine.KilledError
				if errors.As(err, &killed) {
					mon.Crashed(killed.Rank, killed.Stage)
				} else {
					mon.Errored(rank)
				}
				return
			}
			rep.Rank = rank
			rep.WireBytes = meter.Counters().SentBytes
			reports[rank] = rep
			outputs[rank] = out
		}
	}
	opts.startTasks(tasks)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A canceled job is not a fault: no suspects, no recovery — the
		// caller asked for the stop.
		return nil, nil, fmt.Errorf("cluster: job canceled: %w", err)
	}
	if suspects := mon.Suspects(); len(suspects) > 0 {
		// Prefer the detected rank's own error over a casualty's ErrClosed.
		werr := errs[suspects[0].Rank]
		if werr == nil {
			for _, e := range errs {
				if e != nil {
					werr = e
					break
				}
			}
		}
		err := fmt.Errorf("cluster: attempt %d canceled, detected %v", attempt, suspects)
		if werr != nil {
			err = fmt.Errorf("cluster: attempt %d canceled, detected %v: %w", attempt, suspects, werr)
		}
		return nil, suspects, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: worker %d: %w", r, err)
		}
	}
	var job *JobReport
	if streaming {
		sums := make([]verify.Summary, spec.K)
		for r, c := range checkers {
			sums[r] = c.Summary()
		}
		job, err = assemble(spec, reports, nil, sums)
	} else {
		job, err = assemble(spec, reports, outputs, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	return job, nil, nil
}

// checkSplitterAgreement verifies every worker of a sampled job reported
// the same splitter bounds, and that they match the coordinator's own
// replay of the deterministic sampling round. A mismatch means the round's
// determinism argument was violated (non-deterministic input read, a
// worker partitioned by stale bounds after recovery) and the job's output,
// though locally sorted, would not be globally partitioned as verified.
func checkSplitterAgreement(spec Spec, reports []WorkerReport) error {
	want, err := spec.ExpectedSplitters()
	if err != nil {
		return fmt.Errorf("cluster: replaying sample round: %w", err)
	}
	for _, w := range reports {
		if len(w.SplitterBounds) != len(want) {
			return fmt.Errorf("cluster: worker %d reported %d splitters, expected %d",
				w.Rank, len(w.SplitterBounds), len(want))
		}
		for i, b := range w.SplitterBounds {
			if !bytes.Equal(b, want[i]) {
				return fmt.Errorf("cluster: worker %d splitter %d diverged from the deterministic sample",
					w.Rank, i)
			}
		}
	}
	return nil
}

// inputFiles lists the K part files of a teragen -disk directory.
func inputFiles(dir string, k int) []string {
	files := make([]string, k)
	for i := range files {
		files[i] = extsort.PartFile(dir, i)
	}
	return files
}

// describeInput summarizes the job's input for multiset verification:
// generated data is described by regeneration, file-backed data by a
// streaming scan of the part files — both in O(block) memory.
func describeInput(spec Spec) (verify.Input, error) {
	if spec.InputDir == "" {
		return verify.DescribeGenerated(kv.NewGenerator(spec.Seed, spec.Dist()), spec.Rows), nil
	}
	var in verify.Input
	for _, path := range inputFiles(spec.InputDir, spec.K) {
		if err := extsort.ScanFile(path, 1<<14, func(b kv.Records) error {
			in.Rows += int64(b.Len())
			in.Checksum += b.Checksum()
			return nil
		}); err != nil {
			return verify.Input{}, err
		}
	}
	return in, nil
}

// runWorker executes the spec's algorithm on one endpoint. A non-nil sink
// receives the sorted partition as ascending blocks instead of it being
// returned; hooks observe each completed stage through the engine runtime;
// faults is the attempt's injected failure set (the engine filters by
// rank).
func runWorker(ep transport.Endpoint, spec Spec, faults engine.Faults, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, kv.Records, error) {
	cfg := coded.Config{
		K: spec.K, R: spec.redundancy(), Placement: spec.PlacementKind(),
		Rows: spec.Rows, Seed: spec.Seed, Dist: spec.Dist(),
		Parallel:  spec.ParallelShuffle,
		ChunkRows: spec.ChunkRows, Window: spec.Window,
		MemBudget: spec.MemBudget, SpillDir: spec.SpillDir,
		OutputSink:   sink,
		Parallelism:  spec.Parallelism,
		Hooks:        hooks,
		Faults:       faults,
		Partitioning: spec.Partitioning, SampleSize: spec.SampleSize,
		Splitters: spec.Splitters,
	}
	if spec.InputDir != "" {
		cfg.InputFiles = inputFiles(spec.InputDir, spec.K)
	}
	res, err := coded.Run(ep, cfg, nil)
	if err != nil {
		return WorkerReport{}, kv.Records{}, err
	}
	rep := WorkerReport{
		SplitterBounds: res.SplitterBounds, SampleRoundBytes: res.SampleRoundBytes,
		Times:            res.Times,
		SentPayloadBytes: res.ShuffleBytes, MulticastOps: res.MulticastOps,
		ChunksSent: res.ChunksSent, ChunksReceived: res.ChunksReceived,
		OutputRows: res.OutputRows, OutputChecksum: res.OutputChecksum,
		SpilledRuns: res.SpilledRuns, Spill: res.Spill,
		MergeOVCDecided: res.MergeOVCDecided, MergeFullCompares: res.MergeFullCompares,
	}
	if spec.KeepOutput {
		rep.Output = res.Output
	}
	return rep, res.Output, nil
}

// assemble merges worker reports, verifies outputs, and builds the job
// report. Exactly one of outputs (materialized partitions) or sums
// (streaming-checker summaries) carries the verification evidence; nil for
// both skips verification (the TCP coordinator's checksum-only path).
func assemble(spec Spec, reports []WorkerReport, outputs []kv.Records, sums []verify.Summary) (*JobReport, error) {
	job := &JobReport{Spec: spec, Workers: reports}
	for _, w := range reports {
		job.Times = job.Times.Max(w.Times)
		job.ShuffleLoadBytes += w.SentPayloadBytes
		job.WireBytes += w.WireBytes
		job.ChunksShuffled += w.ChunksSent
		job.SpilledRuns += w.SpilledRuns
		job.Spill.Add(w.Spill)
		job.MergeOVCDecided += w.MergeOVCDecided
		job.MergeFullCompares += w.MergeFullCompares
		job.SampleRoundBytes += w.SampleRoundBytes
	}
	if spec.sampled() {
		if err := checkSplitterAgreement(spec, reports); err != nil {
			return nil, err
		}
	}
	if outputs == nil && sums == nil {
		return job, nil
	}
	in, err := describeInput(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: describing input: %w", err)
	}
	if sums == nil {
		sums = make([]verify.Summary, len(outputs))
		p, err := spec.verifyPartitioner()
		if err != nil {
			return nil, err
		}
		// Partitions are checked concurrently; parallel.Do returns the
		// failure with the lowest partition index, so the error is the
		// same at any core count.
		if err := parallel.Do(parallel.Resolve(0), len(outputs), func(k int) error {
			c := verify.NewPartitionChecker(p, k)
			if err := c.Feed(outputs[k]); err != nil {
				return err
			}
			sums[k] = c.Summary()
			return nil
		}); err != nil {
			return nil, fmt.Errorf("cluster: output verification failed: %w", err)
		}
	}
	// A worker's reported summary is what the job status publishes and
	// cross-engine comparisons use, so it must be the partition verified.
	for r, w := range reports {
		if w.OutputRows != sums[r].Rows || w.OutputChecksum != sums[r].Checksum {
			return nil, fmt.Errorf("cluster: worker %d reported %d rows, checksum %#x; its verified partition has %d rows, checksum %#x",
				w.Rank, w.OutputRows, w.OutputChecksum, sums[r].Rows, sums[r].Checksum)
		}
	}
	if err := verify.CheckSummaries(sums, in); err != nil {
		return nil, fmt.Errorf("cluster: output verification failed: %w", err)
	}
	job.Validated = true
	return job, nil
}
