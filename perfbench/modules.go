package main

import (
	"fmt"
	"runtime"

	"codedterasort/internal/cluster"
	"codedterasort/internal/codec"
	"codedterasort/internal/coded"
	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/verify"
)

// moduleReps is how often each module function is timed; the metric is
// the median span.
const moduleReps = 3

// modules times the public module functions the engines are built from,
// on inputs sized like the workload's jobs, as spans of the traced run.
// The coded spec gives the input (rows, distribution, partitioning) and the
// coded layout; the TeraSort spec gives the memory budget when it spills.
func modules(r *run, codedSpec, teraSpec cluster.Spec) error {
	tr := r.tr
	procs := runtime.GOMAXPROCS(0)
	codedSpec.Seed = r.jobSeed()
	rows, k := codedSpec.Rows, codedSpec.K
	gen := kv.NewGenerator(codedSpec.Seed, codedSpec.Dist())
	var p partition.Partitioner = partition.NewUniform(k)
	if bounds, err := codedSpec.ExpectedSplitters(); err != nil {
		return err
	} else if bounds != nil {
		sp, err := partition.NewSplitters(bounds)
		if err != nil {
			return err
		}
		p = sp
	}
	timeN := func(name string, prep func(), fn func() error) error {
		for i := 0; i < moduleReps; i++ {
			if prep != nil {
				prep()
			}
			if err := tr.timed(name, fn); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		r.set(name+"_s", tr.medianSeconds(name))
		return nil
	}

	var input kv.Records
	if err := timeN("kv.generate", nil, func() error {
		input = gen.GenerateParallel(0, rows, procs)
		return nil
	}); err != nil {
		return err
	}
	if err := timeN("verify.describe", nil, func() error {
		if got := verify.DescribeGenerated(gen, rows); got != verify.Describe(input) {
			return fmt.Errorf("describe %+v, want %+v", got, verify.Describe(input))
		}
		return nil
	}); err != nil {
		return err
	}
	// One mapper's input is a TeraSort node's rows/K; one reducer's share
	// is partition 0 of the whole input.
	mapper := input.Slice(0, int(rows/int64(k)))
	if err := timeN("partition.scatter", nil, func() error {
		partition.SplitParallel(p, mapper, procs)
		return nil
	}); err != nil {
		return err
	}
	share := partition.SplitParallel(p, input, procs)[0]
	input = kv.Records{}
	var sorted kv.Records
	if err := timeN("kv.sort", func() { sorted = share.Clone() }, func() error {
		sorted.SortRadixParallel(procs)
		return nil
	}); err != nil {
		return err
	}
	if err := timeN("verify.check", nil, func() error {
		return verify.NewPartitionChecker(p, 0).Feed(sorted)
	}); err != nil {
		return err
	}

	// Out-of-core sort of one worker's partition under the budget (the
	// outofcore_zipf rule, rows·100/32, where the workload sets none).
	budget := teraSpec.MemBudget
	if budget == 0 {
		budget = rows * kv.RecordSize / 32
	}
	for i := 0; i < moduleReps; i++ {
		s, err := extsort.NewSorter(r.spill, budget)
		if err != nil {
			return err
		}
		err = tr.timed("extsort.spill", func() error {
			return share.ForEachBlock(s.BlockRows(), s.Append)
		})
		if err == nil {
			err = tr.timed("extsort.merge", func() error {
				out, err := extsort.DrainSorted(s, s.BlockRows(), func(kv.Records) error { return nil })
				if err == nil && out.Rows != int64(share.Len()) {
					err = fmt.Errorf("merged %d rows, want %d", out.Rows, share.Len())
				}
				return err
			})
		}
		s.Close()
		if err != nil {
			return fmt.Errorf("extsort: %w", err)
		}
	}
	r.set("extsort.spill_s", tr.medianSeconds("extsort.spill"))
	r.set("extsort.merge_s", tr.medianSeconds("extsort.merge"))
	share, sorted = kv.Records{}, kv.Records{}

	// The coded layout: group and subfile counts, and the multicast codec
	// over the groups ranks 0 and 1 share — rank 1 encodes its packets,
	// rank 0 decodes them, each against its own Map-stage store.
	strat, err := placement.New(codedSpec.PlacementKind(), k, codedSpec.R)
	if err != nil {
		return err
	}
	r.set("placement.groups", float64(strat.NumGroups()))
	r.set("placement.subfiles", float64(strat.NumFiles()))
	plan, err := strat.Plan(rows)
	if err != nil {
		return err
	}
	store0 := coded.MapFiles(plan, p, gen, 0)
	store1 := coded.MapFiles(plan, p, gen, 1)
	var shared []placement.Group
	for _, g := range strat.GroupsOf(1) {
		if g.Contains(0) {
			shared = append(shared, g)
		}
	}
	packets := make([][]byte, len(shared))
	if err := timeN("codec.encode", nil, func() error {
		for i, g := range shared {
			pk, err := codec.EncodeGroupPacket(store1, g.Group, 1)
			if err != nil {
				return err
			}
			packets[i] = pk
		}
		return nil
	}); err != nil {
		return err
	}
	return timeN("codec.decode", nil, func() error {
		for i, g := range shared {
			if _, err := codec.DecodeGroupPacket(store0, g.Group, 0, 1, packets[i]); err != nil {
				return err
			}
		}
		return nil
	})
}
