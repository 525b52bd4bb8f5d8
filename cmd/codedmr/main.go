// Command codedmr runs a registered MapReduce kernel on the in-process
// coded-MapReduce framework — the paper's "Beyond Sorting Algorithms"
// direction (Section VI) as a command. The kernel's map/reduce pair rides
// the same engines, knobs and recovery as the sorters: -r picks coded
// (r >= 2) or uncoded execution, and -compare runs both and reports the
// communication-load gain alongside a byte-equality check of the outputs.
//
// Usage:
//
//	codedmr -kernel wordcount -k 6 -r 3 -rows 200000
//	codedmr -kernel grep -pattern QQ -rows 300000 -compare
//	codedmr -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/stats"
)

func main() {
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 6)
	j.RegisterCoded(flag.CommandLine, 3)
	kernel := flag.String("kernel", "wordcount", "registered kernel to run (see -list)")
	pattern := flag.String("pattern", "QQ", "pattern the grep kernel selects on")
	compare := flag.Bool("compare", false, "also run the uncoded baseline and report the load gain")
	list := flag.Bool("list", false, "list the registered kernels and exit")
	show := flag.Int("show", 0, "print the first N reduced records of each rank")
	// The MR supervisor has no deadline-based straggler detection (that
	// lives in the sorting cluster runtime), so only the injection and
	// recovery-cap knobs of the fault surface apply here.
	flag.Float64Var(&j.Stragglers, "stragglers", 0,
		"inject one straggler: slow the straggler rank's egress by this factor (0 or 1 = healthy; effective with -rate or -permsg)")
	flag.IntVar(&j.StragglerRank, "straggler-rank", 0, "which rank the -stragglers injection slows")
	flag.IntVar(&j.MaxAttempts, "max-attempts", 0, "recovery attempt cap for supervised runs (0 = fit to injected faults)")
	flag.Parse()

	if *list {
		for _, k := range mapreduce.Kernels() {
			fmt.Printf("%-14s %s\n", k.Name, k.Doc)
		}
		return
	}
	kern, ok := mapreduce.Lookup(*kernel)
	if !ok {
		fmt.Fprintf(os.Stderr, "codedmr: unknown kernel %q (try -list)\n", *kernel)
		os.Exit(1)
	}
	if kern.Name == "grep" {
		kern = mapreduce.Grep(*pattern)
	}

	job := buildJob(kern, &j)
	opts := mapreduce.LocalOptions{
		RateMbps: j.Rate, PerMessage: j.PerMsg,
		StragglerFactor: j.Stragglers, StragglerRank: j.StragglerRank,
		MaxAttempts: j.MaxAttempts,
	}
	start := time.Now()
	rep, err := mapreduce.RunLocal(job, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codedmr:", err)
		os.Exit(1)
	}
	engine := "uncoded"
	if j.R >= 2 {
		engine = fmt.Sprintf("coded r=%d", j.R)
	}
	fmt.Printf("%s (%s): K=%d, %d input records -> %d reduced records, wall time %.2fs\n",
		kern.Name, engine, j.K, j.Rows, rep.Rows, time.Since(start).Seconds())
	if rep.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", rep.Attempts, rep.Recovered)
	}

	if *compare {
		base := buildJob(kern, &j)
		base.R = 0
		baseRep, err := mapreduce.RunLocal(base, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codedmr: baseline:", err)
			os.Exit(1)
		}
		rows := []stats.Row{
			{Label: "uncoded", Times: baseRep.Times},
			{Label: fmt.Sprintf("coded: r=%d", j.R), Times: rep.Times,
				Speedup: baseRep.Times.Total().Seconds() / rep.Times.Total().Seconds()},
		}
		fmt.Print(stats.RenderTable("", rows))
		fmt.Printf("communication load: uncoded %.2f MB vs coded %.2f MB (gain %.2fx)\n",
			float64(baseRep.ShuffleLoadBytes)/1e6, float64(rep.ShuffleLoadBytes)/1e6,
			float64(baseRep.ShuffleLoadBytes)/float64(rep.ShuffleLoadBytes))
		if !sameOutput(rep, baseRep) {
			fmt.Fprintln(os.Stderr, "codedmr: coded and uncoded outputs differ")
			os.Exit(1)
		}
		fmt.Println("coded and uncoded reduced outputs are byte-identical")
	} else {
		fmt.Print(stats.RenderTable("", []stats.Row{{Label: kern.Name, Times: rep.Times}}))
		fmt.Printf("shuffle payload: %.2f MB\n", float64(rep.ShuffleLoadBytes)/1e6)
	}
	if rep.ChunksShuffled > 0 {
		fmt.Printf("pipelined shuffle: %d chunk packets\n", rep.ChunksShuffled)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			rep.SpilledRuns, float64(j.MemBudget)/1e6)
	}
	if *show > 0 {
		printSample(rep, *show)
	}
}

// buildJob folds the parsed flags onto the kernel's job.
func buildJob(kern mapreduce.Kernel, j *flags.Job) mapreduce.Job {
	job := kern.Job(j.K, j.R, j.Rows, j.Seed)
	if j.Skewed {
		job.Dist = kv.DistSkewed
	}
	job.ChunkRows, job.Window = j.Chunk, j.Window
	job.MemBudget, job.SpillDir = j.MemBudget, j.SpillDir
	job.Parallelism = j.Procs
	return job
}

// sameOutput reports whether two runs reduced to identical bytes per rank.
func sameOutput(a, b *mapreduce.Report) bool {
	if len(a.PerRank) != len(b.PerRank) {
		return false
	}
	for rank := range a.PerRank {
		if !bytes.Equal(a.Output(rank).Bytes(), b.Output(rank).Bytes()) {
			return false
		}
	}
	return true
}

// printSample prints the head of each rank's reduced output.
func printSample(rep *mapreduce.Report, n int) {
	for rank := range rep.PerRank {
		out := rep.Output(rank)
		fmt.Printf("rank %d (%d records):\n", rank, out.Len())
		for i := 0; i < out.Len() && i < n; i++ {
			fmt.Printf("  %-10s -> %s\n",
				mapreduce.TrimPad(out.Key(i)), mapreduce.TrimPad(out.Value(i)))
		}
	}
}
