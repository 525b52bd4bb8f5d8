package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"codedterasort/internal/stats"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail percentile read off fewer samples is mostly noise.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float error in p·n from bumping an exact rank.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// supportedPercentile returns the highest nearest-rank percentile, at most
// want, that leaves at least minTail of n samples beyond it, and whether
// any percentile is supported at all (n > minTail).
func supportedPercentile(n int, want float64) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	// Nearest rank ceil(p·n/100) must stay at or below n−minTail.
	limit := 100 * float64(n-minTail) / float64(n)
	if want < limit {
		return want, true
	}
	return limit, true
}

// part identifies one sorted output partition: enough to compare two runs
// of the same input without shipping the data.
type part struct {
	Rows     int64
	Checksum uint64
}

// outcome is what the benchmark checks about one finished job.
type outcome struct {
	Engine    string
	Err       error
	Validated bool
	Parts     []part
}

// tally counts jobs attempted and failed over a run.
type tally struct {
	attempted, failed int
	reasons           []string
}

// pair accounts one coded job and one TeraSort job over the same input. A
// job fails when it errored or its report is not validated; when both ran
// clean but their partitions disagree (the coded = uncoded oracle), both
// count as failed, since neither output can be trusted.
func (t *tally) pair(coded, tera outcome) {
	t.attempted += 2
	ok := true
	for _, o := range []outcome{coded, tera} {
		switch {
		case o.Err != nil:
			t.fail(fmt.Sprintf("%s job: %v", o.Engine, o.Err))
			ok = false
		case !o.Validated:
			t.fail(fmt.Sprintf("%s job: output not validated", o.Engine))
			ok = false
		}
	}
	if !ok {
		return
	}
	if err := sameParts(coded.Parts, tera.Parts); err != nil {
		t.failed += 2
		t.reasons = append(t.reasons, "coded and terasort disagree: "+err.Error())
	}
}

func (t *tally) fail(why string) {
	t.failed++
	t.reasons = append(t.reasons, why)
}

// frac is failed over attempted.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// sameParts compares two partition lists rank by rank.
func sameParts(a, b []part) error {
	if len(a) != len(b) || len(a) == 0 {
		return fmt.Errorf("%d vs %d partitions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("partition %d: %d rows %#x vs %d rows %#x",
				i, a[i].Rows, a[i].Checksum, b[i].Rows, b[i].Checksum)
		}
	}
	return nil
}

// stageRec is one rank's completed stage within a job: End is measured
// from the job's start.
type stageRec struct {
	Rank    int
	Stage   stats.Stage
	End     time.Duration
	Elapsed time.Duration
}

// stageMaxima is the per-stage maximum over ranks, the paper's table
// columns.
func stageMaxima(recs []stageRec) [stats.NumStages]time.Duration {
	var out [stats.NumStages]time.Duration
	for _, r := range recs {
		if r.Stage >= 0 && r.Stage < stats.NumStages && r.Elapsed > out[r.Stage] {
			out[r.Stage] = r.Elapsed
		}
	}
	return out
}

// stageWait sums, over stages, how long after the median rank the slowest
// rank finished: the barrier wait the other ranks spend on the straggler.
func stageWait(recs []stageRec) time.Duration {
	ends := map[stats.Stage][]float64{}
	for _, r := range recs {
		ends[r.Stage] = append(ends[r.Stage], float64(r.End))
	}
	var total time.Duration
	for _, e := range ends {
		total += time.Duration(percentile(e, 100) - median(e))
	}
	return total
}

// unaccounted is the job wall time the stage columns do not cover: the
// wall minus the sum of per-stage maxima.
func unaccounted(wall time.Duration, recs []stageRec) time.Duration {
	m := stageMaxima(recs)
	gap := wall
	for _, d := range m {
		gap -= d
	}
	return gap
}
