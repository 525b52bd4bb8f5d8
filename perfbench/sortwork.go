package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"codedterasort/internal/cluster"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
)

// sortWorkload runs both engines on the same inputs, one pair of jobs per
// fresh input seed, for the run's measured seconds.
type sortWorkload struct {
	coded, tera cluster.Spec // templates; Seed and SpillDir are set per job
	tcp         bool         // coordinator + in-process RunWorkers over loopback TCP
}

var (
	paperShaped = sortWorkload{
		coded: cluster.Spec{Algorithm: cluster.AlgCoded, K: 16, R: 3, Rows: 200_000, RateMbps: 100},
		tera:  cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 16, Rows: 200_000, RateMbps: 100},
		tcp:   true,
	}
	cpuPipelined = sortWorkload{
		coded: cluster.Spec{Algorithm: cluster.AlgCoded, K: 8, R: 3, Rows: 1_000_000,
			ParallelShuffle: true, ChunkRows: 2000, Window: 8},
		tera: cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 8, Rows: 1_000_000,
			ParallelShuffle: true, ChunkRows: 2000, Window: 8},
	}
	outOfCoreZipf = sortWorkload{
		coded: cluster.Spec{Algorithm: cluster.AlgCoded, K: 8, R: 3, Rows: 1_000_000,
			DistName: "zipf", Partitioning: "sample", ParallelShuffle: true,
			MemBudget: 1_000_000 * kv.RecordSize / 32},
		tera: cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 8, Rows: 1_000_000,
			DistName: "zipf", Partitioning: "sample", ParallelShuffle: true,
			MemBudget: 1_000_000 * kv.RecordSize / 32},
	}
)

// sortJob is one finished job of a sort workload.
type sortJob struct {
	engine string
	wall   time.Duration
	rssMB  float64
	rep    *cluster.JobReport
	span   int // job span ID in the traced run (0 when untraced)
	traced bool
}

func (w sortWorkload) run(r *run) error {
	var coord *cluster.Coordinator
	defer func() {
		if coord != nil {
			coord.Close()
		}
	}()
	// Setup: start the deployment and run one cold job of each kind, a
	// few times over; setup_s is the median. Each cold job starts from a
	// heap returned to the OS, so its peak RSS is its own: the per-engine
	// peak RSS metrics are the medians over these jobs.
	var setups []float64
	rss := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if coord != nil {
			coord.Close()
			coord = nil
		}
		if w.tcp {
			c, err := cluster.NewCoordinator("127.0.0.1:0")
			if err != nil {
				return err
			}
			coord = c
		}
		pair, err := w.pair(r, coord, i, coldJob)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, j := range pair {
			rss[j.engine] = append(rss[j.engine], j.rssMB)
		}
	}
	r.set("setup_s", median(setups))
	for _, e := range engines {
		r.set(e+"_peak_rss_mb", median(rss[e]))
	}

	// Measured phase: pairs on fresh seeds until the time is up, on the
	// warm heap a long-lived process keeps. In the traced run every other
	// pair is traced, so the untraced pairs give the tracing overhead.
	if err := resetPeakRSS(false); err != nil {
		return err
	}
	var jobs []sortJob
	begin := time.Now()
	for i := 0; time.Since(begin) < r.seconds; i++ {
		kind := timedJob
		if r.tr != nil && i%2 == 0 {
			kind = tracedJob
		}
		pair, err := w.pair(r, coord, i, kind)
		if err != nil {
			return err
		}
		jobs = append(jobs, pair...)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", peak)
	w.endToEnd(r, jobs)
	if r.tr != nil {
		w.derive(r, jobs)
		return modules(r, w.coded, w.tera)
	}
	return nil
}

// jobKind says how a job is measured.
type jobKind int

const (
	coldJob   jobKind = iota // setup: from a heap returned to the OS, peak RSS taken
	timedJob                 // measured phase, untraced
	tracedJob                // measured phase, stage spans recorded
)

// pair runs the coded and the TeraSort job on one fresh input seed,
// alternating which goes first, and checks both against each other.
func (w sortWorkload) pair(r *run, coord *cluster.Coordinator, i int, kind jobKind) ([]sortJob, error) {
	seed := r.jobSeed()
	specs := []cluster.Spec{w.coded, w.tera}
	if i%2 == 1 {
		specs[0], specs[1] = specs[1], specs[0]
	}
	out := map[cluster.Algorithm]outcome{}
	var jobs []sortJob
	for _, spec := range specs {
		spec.Seed = seed
		if spec.MemBudget > 0 {
			spec.SpillDir = r.spill
		}
		job, err := w.job(r, coord, spec, kind)
		if errors.Is(err, errMeasure) {
			return nil, err
		}
		o := outcome{Engine: engineName(spec.Algorithm), Err: err}
		if err == nil {
			o.Validated = job.rep.Validated
			o.Parts = partsOf(job.rep)
			jobs = append(jobs, job)
		}
		out[spec.Algorithm] = o
	}
	r.tally.pair(out[cluster.AlgCoded], out[cluster.AlgTeraSort])
	return jobs, nil
}

// errMeasure marks a failure of the benchmark's own measurement, as
// opposed to a failed job.
var errMeasure = errors.New("measurement failed")

// job runs one sort job and times it; a cold job also takes its peak RSS.
func (w sortWorkload) job(r *run, coord *cluster.Coordinator, spec cluster.Spec, kind jobKind) (sortJob, error) {
	job := sortJob{engine: engineName(spec.Algorithm), traced: kind == tracedJob}
	if kind == coldJob {
		if err := resetPeakRSS(true); err != nil {
			return job, fmt.Errorf("%w: %v", errMeasure, err)
		}
	} else {
		runtime.GC() // the previous job's garbage is not this job's cost
	}
	var tr *tracer
	if job.traced {
		tr = r.tr
	}
	start := time.Now()
	if tr != nil {
		job.span = tr.add(span{Name: "job." + job.engine, Job: fmt.Sprintf("%s-%d", job.engine, spec.Seed), Start: tr.at(start)})
	}
	var rep *cluster.JobReport
	var err error
	if w.tcp {
		rep, err = runTCP(coord, spec, tr, job.span)
	} else {
		var opts cluster.Options
		if tr != nil {
			opts.OnStage = func(rec trace.StageRecord) {
				tr.add(span{
					Parent: job.span, Name: "stage." + rec.Stage.String(),
					Start: tr.at(start.Add(rec.At - rec.Elapsed)), End: tr.at(start.Add(rec.At)),
					Rank: rec.Node, Attempt: rec.Attempt,
				})
			}
		}
		rep, err = cluster.RunLocalOpts(context.Background(), spec, opts)
	}
	job.wall = time.Since(start)
	tr.end(job.span, start.Add(job.wall))
	if err != nil {
		return job, err
	}
	job.rep = rep
	if kind == coldJob {
		rss, err := peakRSSMB()
		if err != nil {
			return job, fmt.Errorf("%w: %v", errMeasure, err)
		}
		job.rssMB = rss
	}
	return job, nil
}

// runTCP runs spec on the coordinator with spec.K in-process RunWorkers
// dialing it over loopback. Worker stage records carry the worker's index,
// not its assigned rank, which the stage ledger does not need.
func runTCP(coord *cluster.Coordinator, spec cluster.Spec, tr *tracer, parent int) (*cluster.JobReport, error) {
	var wg sync.WaitGroup
	werrs := make([]error, spec.K)
	for i := 0; i < spec.K; i++ {
		var opts cluster.WorkerOptions
		if tr != nil {
			worker := i
			opts.OnStage = func(st stats.Stage, elapsed time.Duration) {
				end := time.Now()
				tr.add(span{
					Parent: parent, Name: "stage." + st.String(),
					Start: tr.at(end.Add(-elapsed)), End: tr.at(end), Rank: worker, Attempt: 1,
				})
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = cluster.RunWorker(coord.Addr(), opts)
		}(i)
	}
	rep, err := coord.RunJob(spec)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := errors.Join(werrs...); err != nil {
		return nil, err
	}
	return rep, nil
}

func engineName(a cluster.Algorithm) string {
	if a == cluster.AlgCoded {
		return "coded"
	}
	return "terasort"
}

// partsOf lists a report's partitions in rank order.
func partsOf(rep *cluster.JobReport) []part {
	ws := append([]cluster.WorkerReport(nil), rep.Workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Rank < ws[j].Rank })
	out := make([]part, len(ws))
	for i, w := range ws {
		out[i] = part{Rows: w.OutputRows, Checksum: w.OutputChecksum}
	}
	return out
}

// inputMB is a spec's input size in MB (10^6 bytes).
func inputMB(spec cluster.Spec) float64 {
	return float64(spec.Rows) * kv.RecordSize / 1e6
}

// endToEnd sets the end-to-end metrics of a sort workload from its
// measured jobs.
func (w sortWorkload) endToEnd(r *run, jobs []sortJob) {
	walls := wallsByEngine(jobs)
	mb := inputMB(w.coded)
	for _, e := range engines {
		r.set(e+"_mb_per_s", mb/median(walls[e]))
	}
	all := append(append([]float64(nil), walls["coded"]...), walls["terasort"]...)
	r.set("job_p90_s", percentile(all, 90))
	r.note("%d jobs measured; walls: coded %.3f s, terasort %.3f s", len(all), walls["coded"], walls["terasort"])
	if _, ok := supportedPercentile(len(all), 90); !ok {
		r.note("job_p90_s has fewer than %d samples beyond it here: it is the slowest job, not a supported tail", minTail)
	}
	r.set("paper.speedup", speedup(jobs))
}

// wallsByEngine groups job wall times, in seconds, by engine.
func wallsByEngine(jobs []sortJob) map[string][]float64 {
	walls := map[string][]float64{}
	for _, j := range jobs {
		walls[j.engine] = append(walls[j.engine], j.wall.Seconds())
	}
	return walls
}

// speedup is TeraSort's median job wall time over coded's.
func speedup(jobs []sortJob) float64 {
	walls := wallsByEngine(jobs)
	return median(walls["terasort"]) / median(walls["coded"])
}

// derive sets the per-module metrics a sort workload's traced jobs yield:
// the stage ledger from the spans, transfer and spill counts from the
// reports.
func (w sortWorkload) derive(r *run, jobs []sortJob) {
	traced := map[string][]float64{}
	untraced := map[string][]float64{}
	byEngine := map[string][]sortJob{}
	for _, j := range jobs {
		if j.traced {
			traced[j.engine] = append(traced[j.engine], j.wall.Seconds())
			byEngine[j.engine] = append(byEngine[j.engine], j)
		} else {
			untraced[j.engine] = append(untraced[j.engine], j.wall.Seconds())
		}
	}
	tSum, uSum := 0.0, 0.0
	for _, e := range engines {
		tSum += median(traced[e])
		uSum += median(untraced[e])
	}
	if uSum > 0 {
		r.set("trace.overhead_frac", tSum/uSum-1)
	}
	for _, e := range engines {
		ledger(r, e, byEngine[e])
		// Counts come from the first traced pair alone: its input is fixed
		// by the seed, so they repeat exactly, while how many pairs fit in
		// the run's seconds does not.
		counts(r, e, w.coded.RateMbps, byEngine[e][:min(1, len(byEngine[e]))])
	}
	loads := map[string]float64{}
	for _, e := range engines {
		loads[e] = r.values["transport."+e+".shuffle_load_bytes"]
	}
	if loads["coded"] > 0 {
		r.set("paper.load_gain", loads["terasort"]/loads["coded"])
	}
}

// ledger derives one engine's stage columns, barrier wait and unaccounted
// wall time from its traced jobs' stage spans: medians over jobs.
func ledger(r *run, engine string, jobs []sortJob) {
	var cols [stats.NumStages][]float64
	var waits, gaps []float64
	for _, j := range jobs {
		recs := stageRecs(r.tr, j.span)
		m := stageMaxima(recs)
		for st := range m {
			cols[st] = append(cols[st], m[st].Seconds())
		}
		waits = append(waits, stageWait(recs).Seconds())
		gaps = append(gaps, unaccounted(j.wall, recs).Seconds())
	}
	for st, name := range stageNames {
		r.set("engine."+engine+"."+name+"_s", median(cols[st]))
	}
	r.set("engine."+engine+".stage_wait_s", median(waits))
	r.set("cluster."+engine+".unaccounted_s", median(gaps))
}

// stageRecs turns a job span's stage children into ledger records of its
// last attempt, timed from the job's start.
func stageRecs(tr *tracer, jobSpan int) []stageRec {
	start := tr.get(jobSpan).Start
	kids := tr.children(jobSpan)
	last := 0
	for _, s := range kids {
		if s.Attempt > last {
			last = s.Attempt
		}
	}
	var out []stageRec
	for _, s := range kids {
		st, err := stats.ParseStage(s.Name[len("stage."):])
		if err != nil || s.Attempt != last {
			continue
		}
		out = append(out, stageRec{
			Rank: s.Rank, Stage: st,
			End:     time.Duration((s.End - start) * float64(time.Second)),
			Elapsed: time.Duration(s.seconds() * float64(time.Second)),
		})
	}
	return out
}

// counts sets one engine's transfer and spill counts: medians over the
// given jobs' reports. rateMbps is the shaped link rate (0 = unshaped).
func counts(r *run, engine string, rateMbps float64, jobs []sortJob) {
	var load, wire, runs, raw, disk, ovc, cpr, eff, chunks, ops, imb, sample []float64
	for _, j := range jobs {
		rep := j.rep
		load = append(load, float64(rep.ShuffleLoadBytes))
		wire = append(wire, float64(rep.WireBytes))
		runs = append(runs, float64(rep.SpilledRuns))
		raw = append(raw, float64(rep.Spill.RawBytes))
		disk = append(disk, float64(rep.Spill.DiskBytes))
		if cmp := rep.MergeOVCDecided + rep.MergeFullCompares; cmp > 0 {
			ovc = append(ovc, float64(rep.MergeOVCDecided)/float64(cmp))
			cpr = append(cpr, float64(cmp)/float64(rep.Spec.Rows))
		}
		if shuffle := rep.Times[stats.StageShuffle].Seconds(); rateMbps > 0 && shuffle > 0 {
			eff = append(eff, float64(rep.WireBytes)*8/(shuffle*rateMbps*1e6))
		}
		chunks = append(chunks, float64(rep.ChunksShuffled))
		var mops int64
		rows := make([]int, len(rep.Workers))
		for i, w := range rep.Workers {
			mops += w.MulticastOps
			rows[i] = int(w.OutputRows)
		}
		ops = append(ops, float64(mops))
		imb = append(imb, partition.Imbalance(rows))
		sample = append(sample, float64(rep.SampleRoundBytes))
	}
	p := "transport." + engine + "."
	r.set(p+"shuffle_load_bytes", median(load))
	r.set(p+"wire_bytes", median(wire))
	r.set(p+"shaped_efficiency", median(eff))
	p = "extsort." + engine + "."
	r.set(p+"spilled_runs", median(runs))
	r.set(p+"spill_raw_bytes", median(raw))
	r.set(p+"spill_disk_bytes", median(disk))
	r.set(p+"ovc_decided_frac", median(ovc))
	r.set(p+"compares_per_row", median(cpr))
	if engine == "coded" {
		r.set("transport.chunks", median(chunks))
		r.set("codec.multicast_ops", median(ops))
		r.set("partition.imbalance", median(imb))
		r.set("partition.sample_round_bytes", median(sample))
	}
}
