package verify

import (
	"runtime"
	"strings"
	"testing"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// makeOutputs builds a correct K-way sorted output for generated input.
func makeOutputs(t *testing.T, seed uint64, rows int64, k int) ([]kv.Records, partition.Partitioner, Input) {
	t.Helper()
	p := partition.NewUniform(k)
	data := kv.NewGenerator(seed, kv.DistUniform).Generate(0, rows)
	parts := partition.Split(p, data)
	for i := range parts {
		parts[i].Sort()
	}
	return parts, p, Describe(data)
}

func TestSortedOutputAcceptsCorrect(t *testing.T) {
	outs, p, in := makeOutputs(t, 1, 2000, 4)
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsUnsortedPartition(t *testing.T) {
	outs, p, in := makeOutputs(t, 2, 2000, 4)
	outs[1].Swap(0, outs[1].Len()-1)
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsMisplacedRecord(t *testing.T) {
	outs, p, in := makeOutputs(t, 3, 2000, 4)
	// Move a record from partition 0 into partition 3's output (keeping
	// both sorted within themselves is unnecessary — membership fails
	// first on the foreign key).
	stolen := outs[0].Slice(0, 1).Clone()
	outs[3] = stolen.AppendRecords(outs[3])
	outs[0] = outs[0].Slice(1, outs[0].Len())
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "belongs to partition") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsLostRecords(t *testing.T) {
	outs, p, in := makeOutputs(t, 4, 2000, 4)
	outs[2] = outs[2].Slice(0, outs[2].Len()-1)
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsCorruptedValue(t *testing.T) {
	outs, p, in := makeOutputs(t, 5, 2000, 4)
	// Flip one byte in a value: row count and order still hold; only the
	// multiset checksum catches it.
	outs[0].Value(0)[5] ^= 0xFF
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsWrongPartitionCount(t *testing.T) {
	outs, p, in := makeOutputs(t, 6, 500, 4)
	err := SortedOutput(outs[:3], p, in)
	if err == nil || !strings.Contains(err.Error(), "outputs") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyPartitionsAllowed(t *testing.T) {
	// K larger than the record count leaves some partitions empty; that
	// is legal.
	outs, p, in := makeOutputs(t, 7, 3, 8)
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

func TestAllEmptyOutput(t *testing.T) {
	outs, p, in := makeOutputs(t, 8, 0, 4)
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeGeneratedMatchesDescribe(t *testing.T) {
	g1 := kv.NewGenerator(9, kv.DistUniform)
	g2 := kv.NewGenerator(9, kv.DistUniform)
	whole := g1.Generate(0, 100000)
	chunked := DescribeGenerated(g2, 100000)
	direct := Describe(whole)
	if chunked != direct {
		t.Fatalf("chunked %+v != direct %+v", chunked, direct)
	}
}

func TestDescribeGeneratedEmpty(t *testing.T) {
	in := DescribeGenerated(kv.NewGenerator(1, kv.DistUniform), 0)
	if in.Rows != 0 || in.Checksum != 0 {
		t.Fatalf("empty description %+v", in)
	}
}

// TestStreamingCheckerMatchesSortedOutput: feeding a partition in many
// small blocks must accept exactly what the materialized checker accepts
// and produce the same summary totals.
func TestStreamingCheckerMatchesSortedOutput(t *testing.T) {
	outs, p, in := makeOutputs(t, 10, 3000, 4)
	sums := make([]Summary, len(outs))
	for k, out := range outs {
		c := NewPartitionChecker(p, k)
		if err := out.ForEachBlock(71, c.Feed); err != nil {
			t.Fatal(err)
		}
		sums[k] = c.Summary()
	}
	if err := CheckSummaries(sums, in); err != nil {
		t.Fatal(err)
	}
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingCheckerDetectsCrossBlockDisorder: a key regression exactly
// at a block boundary must be caught, not just disorder within one block.
func TestStreamingCheckerDetectsCrossBlockDisorder(t *testing.T) {
	outs, p, _ := makeOutputs(t, 11, 2000, 4)
	out := outs[2]
	c := NewPartitionChecker(p, 2)
	mid := out.Len() / 2
	if err := c.Feed(out.Slice(mid, out.Len())); err != nil {
		t.Fatal(err)
	}
	err := c.Feed(out.Slice(0, mid))
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamingCheckerDetectsForeignKey: membership violations surface in
// streaming mode too.
func TestStreamingCheckerDetectsForeignKey(t *testing.T) {
	outs, p, _ := makeOutputs(t, 12, 2000, 4)
	c := NewPartitionChecker(p, 3)
	err := c.Feed(outs[0])
	if err == nil || !strings.Contains(err.Error(), "belongs to partition") {
		t.Fatalf("err = %v", err)
	}
}

// TestCheckSummariesDetectsOverlap: per-partition streams can each be
// sorted while the partitions overlap in key range; only the summary-level
// check sees it.
func TestCheckSummariesDetectsOverlap(t *testing.T) {
	outs, p, in := makeOutputs(t, 13, 2000, 4)
	sums := make([]Summary, len(outs))
	for k, out := range outs {
		c := NewPartitionChecker(p, k)
		if err := c.Feed(out); err != nil {
			t.Fatal(err)
		}
		sums[k] = c.Summary()
	}
	// Swap two summaries: totals still match, order across partitions not.
	sums[1], sums[2] = sums[2], sums[1]
	err := CheckSummaries(sums, in)
	if err == nil || !strings.Contains(err.Error(), "below partition max") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamingCheckerEmptyPartitions: empty streams yield nil min/max and
// pass the cross-partition check.
func TestStreamingCheckerEmptyPartitions(t *testing.T) {
	p := partition.NewUniform(4)
	sums := make([]Summary, 4)
	for k := 0; k < 4; k++ {
		sums[k] = NewPartitionChecker(p, k).Summary()
	}
	if err := CheckSummaries(sums, Input{}); err != nil {
		t.Fatal(err)
	}
}

// TestDescribeGeneratedMatchesReference: the sharded, block-reusing
// description equals the record-by-record reference digest at any core
// count, for every distribution and for row counts around the block size.
func TestDescribeGeneratedMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rowCounts := []int64{0, 1, 1023, 1025, 100003}
	for d := kv.DistUniform; d <= kv.DistVarPrefix; d++ {
		g := kv.NewGenerator(17, d)
		// One reference pass over the largest count, recording the running
		// digest at each row count under test.
		want := map[int64]Input{}
		var ref Input
		rec := make([]byte, kv.RecordSize)
		for _, rows := range rowCounts {
			for ; ref.Rows < rows; ref.Rows++ {
				g.Record(rec, ref.Rows)
				ref.Checksum += kv.ChecksumRecord(rec)
			}
			want[rows] = ref
		}
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			for _, rows := range rowCounts {
				if got := DescribeGenerated(g, rows); got != want[rows] {
					t.Errorf("%s rows=%d GOMAXPROCS=%d: %+v, want %+v", d, rows, procs, got, want[rows])
				}
			}
		}
	}
}

// BenchmarkDescribeGenerated measures the verifier's regeneration of a
// 1M-row input (the size of the cpu_pipelined workload's jobs) at the -cpu
// list's core counts.
func BenchmarkDescribeGenerated(b *testing.B) {
	const rows = 1 << 20
	g := kv.NewGenerator(1, kv.DistUniform)
	b.SetBytes(rows * kv.RecordSize)
	for b.Loop() {
		DescribeGenerated(g, rows)
	}
}
