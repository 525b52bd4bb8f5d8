package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"codedterasort/internal/stats"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{10, 0, false},
		{20, 50, true},
		{50, 80, true},
		{100, 90, true},
		{120, 90, true},
	} {
		got, ok := supportedPercentile(tc.n, 90)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d, 90) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// Whatever percentile is chosen, at least minTail samples lie beyond
	// the sample it selects.
	for n := minTail + 1; n <= 400; n++ {
		p, _ := supportedPercentile(n, 90)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := n - 1 - int(percentile(xs, p))
		if beyond < minTail {
			t.Fatalf("n=%d: p%.3f leaves %d samples beyond it", n, p, beyond)
		}
		if p < 90 && beyond != minTail {
			t.Fatalf("n=%d: p%.3f is not the highest supported (%d beyond)", n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{{10, 10}, {50, 50}, {90, 90}, {91, 100}, {100, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func validated(engine string, parts ...part) outcome {
	return outcome{Engine: engine, Validated: true, Parts: parts}
}

func TestTallyFailedFrac(t *testing.T) {
	good := []part{{Rows: 10, Checksum: 0xa}, {Rows: 12, Checksum: 0xb}}
	var tl tally
	tl.pair(validated("coded", good...), validated("terasort", good...))
	if tl.attempted != 2 || tl.failed != 0 {
		t.Fatalf("clean pair: %d attempted, %d failed", tl.attempted, tl.failed)
	}

	// A forged report that was never validated fails that job alone.
	forged := validated("terasort", good...)
	forged.Validated = false
	tl.pair(validated("coded", good...), forged)
	if tl.attempted != 4 || tl.failed != 1 {
		t.Fatalf("unvalidated report: %d attempted, %d failed", tl.attempted, tl.failed)
	}

	// Two validated reports that disagree on one partition's checksum
	// break the coded = uncoded oracle: both jobs fail.
	bad := []part{{Rows: 10, Checksum: 0xa}, {Rows: 12, Checksum: 0xc}}
	tl.pair(validated("coded", good...), validated("terasort", bad...))
	if tl.attempted != 6 || tl.failed != 3 {
		t.Fatalf("checksum mismatch: %d attempted, %d failed", tl.attempted, tl.failed)
	}

	// An errored (or refused) job counts once.
	tl.pair(outcome{Engine: "coded", Err: errors.New("submit refused")}, validated("terasort", good...))
	if tl.attempted != 8 || tl.failed != 4 {
		t.Fatalf("errors: %d attempted, %d failed", tl.attempted, tl.failed)
	}
	if got, want := tl.frac(), 4.0/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("failed_frac = %v, want %v", got, want)
	}
	if len(tl.reasons) != 4-1 { // the mismatch is one reason for two jobs
		t.Fatalf("reasons %q", tl.reasons)
	}
}

func TestStageLedger(t *testing.T) {
	ms := time.Millisecond
	// Three ranks; Map ends at 100/120/200 ms, Shuffle at 300/330/360 ms.
	recs := []stageRec{
		{Rank: 0, Stage: stats.StageMap, End: 100 * ms, Elapsed: 100 * ms},
		{Rank: 1, Stage: stats.StageMap, End: 120 * ms, Elapsed: 120 * ms},
		{Rank: 2, Stage: stats.StageMap, End: 200 * ms, Elapsed: 200 * ms},
		{Rank: 0, Stage: stats.StageShuffle, End: 300 * ms, Elapsed: 150 * ms},
		{Rank: 1, Stage: stats.StageShuffle, End: 330 * ms, Elapsed: 160 * ms},
		{Rank: 2, Stage: stats.StageShuffle, End: 360 * ms, Elapsed: 140 * ms},
	}
	m := stageMaxima(recs)
	if m[stats.StageMap] != 200*ms || m[stats.StageShuffle] != 160*ms || m[stats.StageReduce] != 0 {
		t.Fatalf("stage maxima %v", m)
	}
	// Slowest minus median finish: Map 200−120, Shuffle 360−330.
	if got, want := stageWait(recs), 110*ms; got != want {
		t.Fatalf("stage wait %v, want %v", got, want)
	}
	// The 500 ms wall less the 360 ms of stage columns.
	if got, want := unaccounted(500*ms, recs), 140*ms; got != want {
		t.Fatalf("unaccounted %v, want %v", got, want)
	}
	if got := stageWait(nil); got != 0 {
		t.Fatalf("empty ledger wait %v", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metric tables the command implements.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q implemented", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d implemented", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v implemented", i, m, endToEnd[i])
		}
	}
	layer := perLayer()
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d implemented", len(doc.PerLayer), len(layer))
	}
	for i, m := range doc.PerLayer {
		if m != layer[i] {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v implemented", i, m, layer[i])
		}
	}
}
