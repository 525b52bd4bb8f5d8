// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the public entry points of the sorting system
// (cluster.RunLocal / RunLocalOpts, the TCP coordinator and workers, and the
// sortd service over HTTP), checks every output, and prints the workload's
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans in memory, writes them to
// .bench_build/perfbench/trace-<workload>-<seed>.jsonl at the end, and
// reports the per-module metrics derived from them.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload cpu_pipelined --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"codedterasort/internal/stats"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"coded_mb_per_s", "MB/s", "higher"},
	{"terasort_mb_per_s", "MB/s", "higher"},
	{"coded_peak_rss_mb", "MB", "lower"},
	{"terasort_peak_rss_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_p90_s", "s", "lower"},
	{"setup_s", "s", "lower"},
}

var (
	engines    = []string{"coded", "terasort"}
	tenants    = []string{"interactive", "batch"}
	stageNames = [stats.NumStages]string{"codegen", "map", "encode", "shuffle", "decode", "reduce"}
)

// perLayer are the traced run's per-module metrics. A workload that does
// not drive a layer reports 0 for it.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, e := range engines {
		for _, st := range stageNames {
			add("engine."+e+"."+st+"_s", "s", "lower")
		}
		add("engine."+e+".stage_wait_s", "s", "lower")
	}
	for _, e := range engines {
		add("cluster."+e+".unaccounted_s", "s", "lower")
	}
	add("verify.describe_s", "s", "lower")
	add("verify.check_s", "s", "lower")
	add("kv.generate_s", "s", "lower")
	add("kv.sort_s", "s", "lower")
	add("partition.scatter_s", "s", "lower")
	add("partition.imbalance", "ratio", "lower")
	add("partition.sample_round_bytes", "bytes", "lower")
	add("placement.groups", "count", "lower")
	add("placement.subfiles", "count", "lower")
	add("codec.encode_s", "s", "lower")
	add("codec.decode_s", "s", "lower")
	add("codec.multicast_ops", "count", "lower")
	for _, e := range engines {
		add("transport."+e+".shuffle_load_bytes", "bytes", "lower")
		add("transport."+e+".wire_bytes", "bytes", "lower")
		add("transport."+e+".shaped_efficiency", "ratio", "higher")
	}
	add("transport.chunks", "count", "lower")
	for _, e := range engines {
		add("extsort."+e+".spilled_runs", "count", "lower")
		add("extsort."+e+".spill_raw_bytes", "bytes", "lower")
		add("extsort."+e+".spill_disk_bytes", "bytes", "lower")
		add("extsort."+e+".ovc_decided_frac", "ratio", "higher")
		add("extsort."+e+".compares_per_row", "ratio", "lower")
	}
	add("extsort.spill_s", "s", "lower")
	add("extsort.merge_s", "s", "lower")
	for _, t := range tenants {
		add("service."+t+".queue_wait_p50_s", "s", "lower")
		add("service."+t+".run_p50_s", "s", "lower")
	}
	add("service.submit_p50_s", "s", "lower")
	add("service.refused", "count", "lower")
	add("loadgen.late_max_s", "s", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	add("paper.speedup", "ratio", "higher")
	add("paper.load_gain", "ratio", "higher")
	return out
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"paper_shaped", paperShaped.run},
	{"cpu_pipelined", cpuPipelined.run},
	{"outofcore_zipf", outOfCoreZipf.run},
	{"sortd_open_loop", runSortd},
}

// setupReps is how many times a sort workload's run sets it up; setup_s is
// the median.
const setupReps = 3

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	spill    string  // spill directory of out-of-core jobs
	tr       *tracer // nil for the untraced run
	tally    tally
	jobs     uint64 // input seeds handed out so far
	values   map[string]float64
	notes    []string
}

// jobSeed hands out the next job's input seed, a pure function of the
// workload seed and the job's position, so no two jobs share an input.
func (r *run) jobSeed() uint64 {
	r.jobs++
	return splitmix(splitmix(r.seed) + r.jobs)
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// set records a metric. A value that could not be measured (a median of
// no samples, divided into) is recorded as 0; the run's failures say why.
func (r *run) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed; every job's input seed derives from it")
	seconds := flag.Int("seconds", 15, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-module metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds what a run writes: spill files and the span dump. It is
// relative to the working directory, the root of the checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

func mainErr(name string, seed uint64, seconds, traced int) error {
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, traced)
	}
	r := &run{
		workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		spill: filepath.Join(outDir, "spill"), values: map[string]float64{},
	}
	if traced == 1 {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.spill, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.spill)
	if err := w.run(r); err != nil {
		return err
	}

	defs := endToEnd
	if r.tr != nil {
		defs = perLayer()
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.note("spans written to %s", path)
	}
	res := result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && r.tr == nil {
			return fmt.Errorf("workload %s did not measure %s", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	report(os.Stderr, r, defs)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 || res.Attempted == 0 {
		return fmt.Errorf("%d of %d jobs failed (failed_frac %.4f)", res.Failed, res.Attempted, r.tally.frac())
	}
	return nil
}

// report prints the human-readable form of a run to w.
func report(w io.Writer, r *run, defs []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d: %d jobs attempted, %d failed (failed_frac %.4f)\n",
		r.workload, r.seed, r.tally.attempted, r.tally.failed, r.tally.frac())
	for _, why := range r.tally.reasons {
		fmt.Fprintln(w, "  FAILED:", why)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	sorted := append([]metricDef(nil), defs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, d := range sorted {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, r.values[d.Name], d.Unit)
	}
}
