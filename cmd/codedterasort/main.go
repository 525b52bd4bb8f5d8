// Command codedterasort runs the sort engine on an in-process cluster of K
// workers, optionally traffic-shaped to emulate the paper's 100 Mbps EC2
// configuration, and prints the stage breakdown in the layout of the
// paper's Table I. At -r 1 it runs the TeraSort baseline (Section III) and
// accepts file-backed input (-indir); above that, CodedTeraSort (Section
// IV). With -compare it also runs the r=1 baseline on the same input and
// reports the speedup and communication-load gain.
//
// Usage:
//
//	codedterasort -k 8 -r 3 -rows 1000000
//	codedterasort -k 6 -r 2 -rows 600000 -rate 200 -compare
//	codedterasort -k 16 -r 1 -rows 1200000 -rate 100 -permsg 5ms
//	codedterasort -k 8 -r 1 -indir /data/input -membudget 67108864
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
)

func main() {
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 8)
	j.RegisterCoded(flag.CommandLine, 3)
	j.RegisterInDir(flag.CommandLine)
	j.RegisterFaults(flag.CommandLine)
	compare := flag.Bool("compare", false, "also run the TeraSort baseline (r=1) and report speedup")
	flag.Parse()

	spec := j.Spec(cluster.AlgCoded)
	start := time.Now()
	job, err := cluster.RunLocal(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codedterasort:", err)
		os.Exit(1)
	}
	totalRows := j.Rows
	if j.InDir != "" {
		// File-backed input: the part files, not -rows, define the size.
		totalRows = 0
		for _, w := range job.Workers {
			totalRows += w.OutputRows
		}
	}
	label := fmt.Sprintf("CodedTeraSort: r=%d", j.R)
	name := fmt.Sprintf("CodedTeraSort: K=%d, r=%d, %s placement", j.K, j.R, spec.PlacementKind())
	if j.R == 1 {
		label, name = "TeraSort", fmt.Sprintf("TeraSort: K=%d", j.K)
	}
	fmt.Printf("%s, %d records (%.1f MB), validated=%v, wall time %.2fs\n",
		name, totalRows, float64(totalRows)*100/1e6, job.Validated, time.Since(start).Seconds())
	if job.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", job.Attempts, job.Recovered)
	}

	if *compare {
		baseJob, err := cluster.RunLocal(j.Spec(cluster.AlgTeraSort))
		if err != nil {
			fmt.Fprintln(os.Stderr, "codedterasort: baseline:", err)
			os.Exit(1)
		}
		fmt.Print(stats.RenderTable("", []stats.Row{
			{Label: "TeraSort", Times: baseJob.Times},
			{Label: label, Times: job.Times,
				Speedup: baseJob.Times.Total().Seconds() / job.Times.Total().Seconds()},
		}))
		fmt.Printf("communication load: TeraSort %.2f MB vs Coded %.2f MB (gain %.2fx)\n",
			float64(baseJob.ShuffleLoadBytes)/1e6, float64(job.ShuffleLoadBytes)/1e6,
			float64(baseJob.ShuffleLoadBytes)/float64(job.ShuffleLoadBytes))
		return
	}
	fmt.Print(stats.RenderTable("", []stats.Row{{Label: label, Times: job.Times}}))
	if j.R == 1 {
		fmt.Printf("shuffle payload: %.2f MB (load %.3f of input)\n",
			float64(job.ShuffleLoadBytes)/1e6, float64(job.ShuffleLoadBytes)/(float64(totalRows)*100))
	} else {
		groups := int64(0)
		if strat, err := placement.New(spec.PlacementKind(), j.K, j.R); err == nil {
			groups = strat.NumGroups()
		}
		fmt.Printf("multicast payload: %.2f MB over %d groups (%s placement)\n",
			float64(job.ShuffleLoadBytes)/1e6, groups, spec.PlacementKind())
	}
	if job.ChunksShuffled > 0 {
		fmt.Printf("pipelined shuffle: %d chunks\n", job.ChunksShuffled)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			job.SpilledRuns, float64(j.MemBudget)/1e6)
	}
}
