package cluster

import (
	"strings"
	"testing"

	"codedterasort/internal/kv"
	"codedterasort/internal/verify"
)

// keptJob runs a small coded job that keeps its outputs, returning the
// spec, the worker reports and the materialized partitions.
func keptJob(t *testing.T) (Spec, []WorkerReport, []kv.Records) {
	t.Helper()
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 12, KeepOutput: true}
	job, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	outputs := make([]kv.Records, len(job.Workers))
	for r, w := range job.Workers {
		outputs[r] = w.Output
	}
	return spec, job.Workers, outputs
}

// TestAssembleRejectsForgedReport: a worker report whose rows or checksum
// disagree with the partition actually verified fails the job, naming the
// rank — on the materialized path and on the streaming-summary path.
func TestAssembleRejectsForgedReport(t *testing.T) {
	spec, reports, outputs := keptJob(t)
	p, err := spec.verifyPartitioner()
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]verify.Summary, len(outputs))
	for k, out := range outputs {
		c := verify.NewPartitionChecker(p, k)
		if err := c.Feed(out); err != nil {
			t.Fatal(err)
		}
		sums[k] = c.Summary()
	}
	forgeries := map[string]func(*WorkerReport){
		"checksum": func(w *WorkerReport) { w.OutputChecksum ^= 1 },
		"rows":     func(w *WorkerReport) { w.OutputRows++ },
	}
	for name, forge := range forgeries {
		forged := append([]WorkerReport(nil), reports...)
		forge(&forged[2])
		for path, run := range map[string]func() (*JobReport, error){
			"materialized": func() (*JobReport, error) { return assemble(spec, forged, outputs, nil) },
			"streaming":    func() (*JobReport, error) { return assemble(spec, forged, nil, sums) },
		} {
			job, err := run()
			if err == nil || !strings.Contains(err.Error(), "worker 2 reported") {
				t.Errorf("%s forgery, %s path: job=%v err=%v", name, path, job != nil, err)
			}
		}
	}
	if _, err := assemble(spec, reports, outputs, nil); err != nil {
		t.Fatalf("honest reports rejected: %v", err)
	}
}

// TestAssembleNamesLowestFailingPartition: with two corrupted partitions
// checked concurrently, the error always names the lower index.
func TestAssembleNamesLowestFailingPartition(t *testing.T) {
	spec, reports, outputs := keptJob(t)
	bad := append([]kv.Records(nil), outputs...)
	for _, k := range []int{1, 3} {
		bad[k] = bad[k].Clone()
		bad[k].Swap(0, bad[k].Len()-1)
	}
	for i := 0; i < 20; i++ {
		_, err := assemble(spec, reports, bad, nil)
		if err == nil || !strings.Contains(err.Error(), "partition 1 output not sorted") {
			t.Fatalf("run %d: err = %v, want partition 1 named", i, err)
		}
	}
}
