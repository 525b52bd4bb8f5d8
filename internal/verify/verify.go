// Package verify checks the correctness of a distributed sort's output:
// every node's partition must be internally sorted, contain only keys of
// that partition, and the concatenation across nodes (in partition order)
// must be a permutation of the input and globally sorted. These are the
// invariants that make (Q_1, ..., Q_K) "the final sorted list of the entire
// input data" (paper Section III-A5).
//
// Two entry points share one implementation: SortedOutput checks fully
// materialized partitions, and PartitionChecker consumes a partition as a
// stream of ascending blocks — the verification path of the out-of-core
// engines, whose sorted output is never resident in memory. Feeding blocks
// costs O(block) memory; the per-partition residue is a Summary (rows,
// multiset checksum, min and max key), and CheckSummaries closes the
// cross-partition and whole-input checks over those summaries alone.
package verify

import (
	"bytes"
	"fmt"

	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
)

// Input summarizes the input against which an output is checked.
type Input struct {
	Rows     int64
	Checksum uint64
}

// Describe computes the Input summary of a record buffer.
func Describe(r kv.Records) Input {
	return Input{Rows: int64(r.Len()), Checksum: r.Checksum()}
}

// describeBlockRows is the block DescribeGenerated regenerates into: small
// enough to stay cache-resident between generation and checksumming.
const describeBlockRows = 1024

// DescribeGenerated computes the Input summary for generated data without
// holding it in memory: rows are split into one contiguous shard per core,
// and each shard regenerates its rows into one reused block and sums the
// block checksums. The checksum is a sum mod 2^64, so the result does not
// depend on the shard count.
func DescribeGenerated(g *kv.Generator, rows int64) Input {
	procs := parallel.Resolve(0)
	sums := make([]uint64, parallel.Shards(procs, int(rows)))
	// The error is always nil: describeBlockRows is positive and the block
	// callback never fails.
	_ = parallel.ForShards(procs, int(rows), func(s, lo, hi int) error {
		return g.GenerateBlocks(int64(lo), int64(hi-lo), describeBlockRows, func(b kv.Records) error {
			sums[s] += b.Checksum()
			return nil
		})
	})
	in := Input{Rows: rows}
	for _, sum := range sums {
		in.Checksum += sum
	}
	return in
}

// Summary is the O(1)-size residue of checking one partition's stream.
type Summary struct {
	// Rows and Checksum accumulate the partition's multiset contribution.
	Rows     int64
	Checksum uint64
	// Min and Max are copies of the smallest and largest key seen (nil for
	// an empty partition). Because the stream is verified ascending, they
	// are the first and last keys.
	Min, Max []byte
}

// PartitionChecker verifies one partition's sorted output incrementally.
// Feed it ascending blocks; it checks key order (within and across blocks)
// and partition membership as they pass through, and accumulates the
// Summary. A zero block count is a legal empty partition.
type PartitionChecker struct {
	p   partition.Partitioner
	k   int
	sum Summary
}

// NewPartitionChecker returns a checker for partition k of p.
func NewPartitionChecker(p partition.Partitioner, k int) *PartitionChecker {
	return &PartitionChecker{p: p, k: k}
}

// Feed verifies the next block of the partition's output stream: every
// record's order and membership, then the block's multiset checksum.
func (c *PartitionChecker) Feed(out kv.Records) error {
	n := out.Len()
	if n == 0 {
		return nil
	}
	prev := c.sum.Max
	for i := 0; i < n; i++ {
		key := out.Key(i)
		if prev != nil && bytes.Compare(key, prev) < 0 {
			return fmt.Errorf("verify: partition %d output not sorted", c.k)
		}
		if got := c.p.Partition(key); got != c.k {
			return fmt.Errorf("verify: record %d of partition %d belongs to partition %d",
				c.sum.Rows+int64(i), c.k, got)
		}
		prev = key
	}
	if c.sum.Min == nil {
		c.sum.Min = append([]byte(nil), out.Key(0)...)
	}
	c.sum.Max = append(c.sum.Max[:0], out.Key(n-1)...)
	c.sum.Rows += int64(n)
	c.sum.Checksum += out.Checksum()
	return nil
}

// Summary returns the partition's accumulated summary.
func (c *PartitionChecker) Summary() Summary { return c.sum }

// CheckSummaries closes verification over per-partition summaries, in
// partition order: partitions must not overlap in key range (partition k's
// min at or above partition k-1's max), and rows and multiset checksum
// must total the input's.
func CheckSummaries(sums []Summary, in Input) error {
	var rows int64
	var sum uint64
	var prevMax []byte
	for k, s := range sums {
		if s.Min != nil {
			if prevMax != nil && bytes.Compare(s.Min, prevMax) < 0 {
				return fmt.Errorf("verify: partition %d starts below partition max of its predecessor", k)
			}
			prevMax = s.Max
		}
		rows += s.Rows
		sum += s.Checksum
	}
	if rows != in.Rows {
		return fmt.Errorf("verify: output has %d rows, input had %d", rows, in.Rows)
	}
	if sum != in.Checksum {
		return fmt.Errorf("verify: output checksum %#x != input checksum %#x", sum, in.Checksum)
	}
	return nil
}

// SortedOutput validates per-node outputs of a K-way distributed sort.
// outputs[k] must be node k's reduced partition; p is the partitioner all
// nodes hashed with. It is the materialized special case of the streaming
// checker: each partition is fed as one block.
func SortedOutput(outputs []kv.Records, p partition.Partitioner, in Input) error {
	if len(outputs) != p.NumPartitions() {
		return fmt.Errorf("verify: %d outputs for %d partitions", len(outputs), p.NumPartitions())
	}
	sums := make([]Summary, len(outputs))
	for k, out := range outputs {
		c := NewPartitionChecker(p, k)
		if err := c.Feed(out); err != nil {
			return err
		}
		sums[k] = c.Summary()
	}
	return CheckSummaries(sums, in)
}
