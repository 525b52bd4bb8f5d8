// Command skewed shows why the paper's uniform key-domain partitioner
// needs help on realistic inputs, and what the sampling round buys: it
// sorts a Zipf(1.1)-keyed input on 8 in-process workers under both
// partitioning policies and prints each reducer's share of the output,
// then sweeps the whole skewed-workload family.
//
//	go run ./examples/skewed
//
// The same comparison from the CLI:
//
//	go run ./cmd/codedterasort -k 8 -r 1 -rows 200000 -dist zipf -partition sample
package main

import (
	"fmt"
	"log"

	"codedterasort/internal/cluster"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

func main() {
	const (
		k    = 8
		rows = 1 << 16
		seed = 42
	)

	fmt.Printf("Sorting %d Zipf(1.1)-keyed rows on %d workers.\n\n", rows, k)
	policies := []string{"uniform", "sample"}
	jobs := make(map[string]*cluster.JobReport, len(policies))
	for _, pol := range policies {
		job, err := cluster.RunLocal(cluster.Spec{
			Algorithm:    cluster.AlgTeraSort,
			K:            k,
			Rows:         rows,
			Seed:         seed,
			DistName:     "zipf",
			Partitioning: pol,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !job.Validated {
			log.Fatalf("%s run failed validation", pol)
		}
		jobs[pol] = job
	}

	fmt.Printf("%-8s %16s %16s\n", "reducer", "uniform rows", "sampled rows")
	for rank := 0; rank < k; rank++ {
		fmt.Printf("%-8d %16d %16d\n", rank,
			jobs["uniform"].Workers[rank].OutputRows,
			jobs["sample"].Workers[rank].OutputRows)
	}
	for _, pol := range policies {
		counts := make([]int, k)
		for i, w := range jobs[pol].Workers {
			counts[i] = int(w.OutputRows)
		}
		fmt.Printf("\n%-8s max/mean imbalance %.2fx", pol, partition.Imbalance(counts))
	}
	fmt.Printf("\nsampling round payload: %d bytes\n\n", jobs["sample"].SampleRoundBytes)

	fmt.Println("The full skewed-workload family, same comparison:")
	fmt.Printf("%-12s %16s %16s\n", "dist", "uniform", "sampled")
	for _, dist := range kv.SkewedDistributions {
		imb := make(map[string]float64, len(policies))
		for _, pol := range policies {
			job, err := cluster.RunLocal(cluster.Spec{
				Algorithm: cluster.AlgTeraSort, K: k, Rows: rows / 4, Seed: seed,
				DistName: dist.String(), Partitioning: pol,
			})
			if err != nil {
				log.Fatal(err)
			}
			counts := make([]int, k)
			for i, w := range job.Workers {
				counts[i] = int(w.OutputRows)
			}
			imb[pol] = partition.Imbalance(counts)
		}
		fmt.Printf("%-12s %15.2fx %15.2fx\n", dist, imb["uniform"], imb["sample"])
	}
}
