package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"codedterasort/internal/engine"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
)

// LocalOptions tune RunLocal beyond the job spec: traffic shaping for
// load/straggler experiments and the recovery attempt cap. The zero value
// runs unshaped with recovery sized to the job's injected faults.
type LocalOptions struct {
	// RateMbps caps each node's egress (0 = unlimited).
	RateMbps float64
	// PerMessage adds a fixed per-message overhead.
	PerMessage time.Duration
	// StragglerFactor, when > 1, slows StragglerRank's egress by this
	// factor (effective with RateMbps or PerMessage, like the sorting
	// CLIs' -stragglers).
	StragglerFactor float64
	// StragglerRank is the rank StragglerFactor slows.
	StragglerRank int
	// MaxAttempts caps the job executions attempt-scoped recovery may use.
	// 0 selects one attempt per injected fault plus the clean run — enough
	// to recover every injected death.
	MaxAttempts int
}

// attempts resolves the MaxAttempts default against the job's fault set.
func (o LocalOptions) attempts(job Job) int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return len(job.Faults) + 1
}

// Report aggregates a completed local job.
type Report struct {
	// PerRank holds every rank's result (reduced output included).
	PerRank []Result
	// Rows is the total reduced output rows across ranks.
	Rows int64
	// ShuffleLoadBytes is the total shuffle payload (multicast counted
	// once) — the communication load coding cuts by ~R.
	ShuffleLoadBytes int64
	// ChunksShuffled totals pipelined chunks sent across ranks.
	ChunksShuffled int64
	// SpilledRuns totals external-sort runs spilled across ranks.
	SpilledRuns int64
	// Times is the cluster-level breakdown: per-stage maximum over ranks.
	Times stats.Breakdown
	// Attempts counts the job executions recovery used (1 = ran clean).
	Attempts int
	// Recovered lists the ranks whose deaths were detected and recovered
	// by re-execution, in detection order.
	Recovered []int
}

// Output returns rank's reduced output.
func (r *Report) Output(rank int) kv.Records { return r.PerRank[rank].Output }

// RunLocal executes the job with all K workers in this process over the
// in-memory transport — the supervised deployment of the MapReduce
// framework. Like the sorting cluster's RunLocal, it recovers from worker
// deaths (injected through Job.Faults) by attempt-scoped re-execution: the
// mesh is closed, which unblocks every peer stuck at the dead rank's
// barrier, and the job re-runs with the dead rank's worker respawned (its
// faults consumed) up to LocalOptions.MaxAttempts. Recovered jobs produce
// reduced output byte-identical to a clean run.
func RunLocal(job Job, opts LocalOptions) (*Report, error) {
	job, err := job.normalize()
	if err != nil {
		return nil, err
	}
	maxAttempts := opts.attempts(job)
	consumed := map[int]bool{}
	var recovered []int
	for attempt := 1; ; attempt++ {
		rep, killed, err := runAttempt(job, opts, consumed)
		if err == nil {
			rep.Attempts = attempt
			rep.Recovered = recovered
			return rep, nil
		}
		if len(killed) == 0 {
			// A genuine worker failure, not a death: deterministic, so
			// re-execution only wastes attempts.
			return nil, err
		}
		recovered = append(recovered, killed...)
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("mapreduce: job failed after %d attempt(s), unrecovered rank(s) %v: %w",
				attempt, killed, err)
		}
		for _, r := range killed {
			consumed[r] = true
		}
	}
}

// runAttempt executes one supervised attempt. Detected deaths come back in
// killed alongside the error; an error with no deaths is unrecoverable.
func runAttempt(job Job, opts LocalOptions, consumed map[int]bool) (*Report, []int, error) {
	faults := job.Faults
	for r := range consumed {
		faults = faults.Without(r)
	}
	mesh := memnet.NewMesh(job.K)
	defer mesh.Close()
	// Any worker error strands its peers at a barrier or a pending
	// receive, so the first one cancels the attempt by closing the mesh —
	// every stuck rank unblocks with ErrClosed.
	var cancel sync.Once
	results := make([]Result, job.K)
	errs := make([]error, job.K)
	var mu sync.Mutex
	var killed []int
	var wg sync.WaitGroup
	for r := 0; r < job.K; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var conn transport.Conn = mesh.Endpoint(rank)
			if opts.RateMbps > 0 || opts.PerMessage > 0 {
				shape := netem.Options{RateMbps: opts.RateMbps, PerMessage: opts.PerMessage}
				if opts.StragglerFactor > 1 && rank == opts.StragglerRank {
					shape.SlowFactor = opts.StragglerFactor
				}
				conn = netem.Limit(conn, shape)
			}
			ep := transport.WithCollectives(conn)
			jr := job
			jr.Faults = faults
			res, err := Run(ep, jr, nil)
			if err != nil {
				errs[rank] = err
				var dead *engine.KilledError
				if errors.As(err, &dead) {
					mu.Lock()
					killed = append(killed, dead.Rank)
					mu.Unlock()
				}
				cancel.Do(func() { mesh.Close() })
				return
			}
			results[rank] = res
		}(r)
	}
	wg.Wait()
	if len(killed) > 0 {
		sort.Ints(killed)
		return nil, killed, fmt.Errorf("mapreduce: attempt canceled, rank(s) %v died: %w", killed, firstError(errs))
	}
	if err := firstError(errs); err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %w", err)
	}
	rep := &Report{PerRank: results}
	for _, res := range results {
		rep.Rows += res.Rows
		rep.ShuffleLoadBytes += res.ShuffleBytes
		rep.ChunksShuffled += res.ChunksSent
		rep.SpilledRuns += res.SpilledRuns
		rep.Times = rep.Times.Max(res.Times)
	}
	return rep, nil, nil
}

// firstError prefers a root-cause error over an ErrClosed casualty of the
// attempt's cancellation.
func firstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, transport.ErrClosed) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}
