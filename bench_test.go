// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Table/figure benchmarks report domain metrics via b.ReportMetric:
// simulated seconds for the EC2-scale tables (sim_total_s, speedup), real
// measured values for the protocol-level figures (load_gain, shuffle_s).
package codedterasort_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"codedterasort/internal/cluster"
	"codedterasort/internal/codec"
	codedpkg "codedterasort/internal/coded"
	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
	"codedterasort/internal/model"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/simnet"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// --- Tables I-III: 12 GB at 100 Mbps on the virtual-time simulator ---

// simTable simulates one paper row at full scale and reports its total.
func simTable(b *testing.B, k, r int, coded bool) {
	b.Helper()
	cm := simnet.Default()
	var total, baseTotal float64
	for i := 0; i < b.N; i++ {
		bd, _, err := simnet.Simulate(simnet.Workload{
			Rows: simnet.Rows12GB, K: k, R: r, Coded: coded,
		}, cm)
		if err != nil {
			b.Fatal(err)
		}
		total = bd.Total().Seconds()
		if coded {
			base, _, err := simnet.Simulate(simnet.Workload{Rows: simnet.Rows12GB, K: k}, cm)
			if err != nil {
				b.Fatal(err)
			}
			baseTotal = base.Total().Seconds()
		}
	}
	b.ReportMetric(total, "sim_total_s")
	if coded {
		b.ReportMetric(baseTotal/total, "speedup")
	}
}

func BenchmarkTable1TeraSortK16(b *testing.B) { simTable(b, 16, 1, false) }
func BenchmarkTable2CodedK16R3(b *testing.B)  { simTable(b, 16, 3, true) }
func BenchmarkTable2CodedK16R5(b *testing.B)  { simTable(b, 16, 5, true) }
func BenchmarkTable3TeraSortK20(b *testing.B) { simTable(b, 20, 1, false) }
func BenchmarkTable3CodedK20R3(b *testing.B)  { simTable(b, 20, 3, true) }
func BenchmarkTable3CodedK20R5(b *testing.B)  { simTable(b, 20, 5, true) }

// --- Fig 1: the K=3, N=6, Q=3 Coded MapReduce example, run live ---

func BenchmarkFig1CMRExample(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		tera, err := cluster.RunLocal(cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 3, Rows: 6000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		codedJob, err := cluster.RunLocal(cluster.Spec{
			Algorithm: cluster.AlgCoded, K: 3, R: 2, Rows: 6000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(tera.ShuffleLoadBytes) / float64(codedJob.ShuffleLoadBytes)
	}
	// The example's 12 -> 3 load reduction is 4x at K=3, r=2.
	b.ReportMetric(gain, "load_gain")
}

// --- Fig 2: the computation/communication tradeoff curve ---

func BenchmarkFig2LoadCurve(b *testing.B) {
	var pts []model.LoadPoint
	for i := 0; i < b.N; i++ {
		pts = model.LoadCurve(10)
	}
	b.ReportMetric(pts[1].Uncoded/pts[1].Coded, "gain_at_r2")
	b.ReportMetric(pts[4].Uncoded/pts[4].Coded, "gain_at_r5")
}

// --- Fig 3: the TeraSort pipeline (K=4 walkthrough scale) ---

func BenchmarkFig3TeraSortPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunLocal(cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 4, Rows: 8000, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 4: structured redundant file placement ---

func BenchmarkFig4RedundantPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := placement.Redundant(16, 5, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 5: the Map stage with relevant-IV filtering ---

func BenchmarkFig5MapStage(b *testing.B) {
	plan, err := placement.Redundant(6, 3, 60000)
	if err != nil {
		b.Fatal(err)
	}
	part := partition.NewUniform(6)
	b.SetBytes(plan.StoredRows(0) * kv.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := kv.NewGenerator(5, kv.DistUniform)
		_ = codedpkg.MapFiles(plan, part, gen, 0)
	}
}

// --- Fig 6/7: encoding and decoding within one multicast group ---

func fig67Setup(b *testing.B) ([]codec.IVMap, combin.Set) {
	b.Helper()
	plan, err := placement.Redundant(5, 2, 50000)
	if err != nil {
		b.Fatal(err)
	}
	part := partition.NewUniform(5)
	stores := make([]codec.IVMap, 5)
	for rank := 0; rank < 5; rank++ {
		stores[rank] = codedpkg.MapFiles(plan, part, kv.NewGenerator(6, kv.DistUniform), rank)
	}
	return stores, combin.NewSet(0, 1, 2)
}

func BenchmarkFig6Encoding(b *testing.B) {
	stores, m := fig67Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodePacket(stores[0], m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Decoding(b *testing.B) {
	stores, m := fig67Setup(b)
	pkt, err := codec.EncodePacket(stores[0], m, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodePacket(stores[1], m, 1, 0, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// Chunked Algorithm 1/2 on the multicore runtime: every chunk of a coded
// packet encodes (and decodes) independently, so the per-chunk
// EncodePacketChunk/DecodePacketChunk calls fan out over P goroutines —
// the coded engine's code-path hot loop at P=1 vs P=NumCPU.
func BenchmarkChunkCodecParallel(b *testing.B) {
	stores, m := fig67Setup(b)
	const chunkRows = 256
	count := codec.PacketChunkCount(stores[0], m, 0, chunkRows)
	pkts := make([][]byte, count)
	for c := 0; c < count; c++ {
		pkt, err := codec.EncodePacketChunk(stores[0], m, 0, chunkRows, c)
		if err != nil {
			b.Fatal(err)
		}
		pkts[c] = pkt
	}
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("encode/p=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := parallel.Do(procs, count, func(c int) error {
					pkt, err := codec.EncodePacketChunk(stores[0], m, 0, chunkRows, c)
					codec.Recycle(pkt)
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/p=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := parallel.Do(procs, count, func(c int) error {
					_, err := codec.DecodePacketChunk(stores[1], m, 1, 0, chunkRows, c, pkts[c])
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 8: the coordinator/worker architecture over real TCP ---

func BenchmarkFig8CoordinatorWorkerTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		coord, err := cluster.NewCoordinator("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		spec := cluster.Spec{Algorithm: cluster.AlgCoded, K: 3, R: 2, Rows: 3000, Seed: 4}
		var wg sync.WaitGroup
		for w := 0; w < spec.K; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cluster.RunWorker(coord.Addr(), cluster.WorkerOptions{}); err != nil {
					b.Error(err)
				}
			}()
		}
		if _, err := coord.RunJob(spec); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
		coord.Close()
	}
}

// --- Fig 9: serial unicast vs serial multicast shuffle schedules ---

// fig9Run measures the shuffle stage under light traffic shaping so the
// schedule, not the in-memory copy, dominates.
func fig9Run(b *testing.B, alg cluster.Algorithm, r int, tree bool) float64 {
	b.Helper()
	job, err := cluster.RunLocal(cluster.Spec{
		Algorithm: alg, K: 6, R: r, Rows: 30000, Seed: 9,
		RateMbps: 2000, TreeMulticast: tree,
	})
	if err != nil {
		b.Fatal(err)
	}
	return job.Times[stats.StageShuffle].Seconds()
}

func BenchmarkFig9aSerialUnicastShuffle(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = fig9Run(b, cluster.AlgTeraSort, 0, false)
	}
	b.ReportMetric(s, "shuffle_s")
}

func BenchmarkFig9bSerialMulticastShuffle(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = fig9Run(b, cluster.AlgCoded, 3, false)
	}
	b.ReportMetric(s, "shuffle_s")
}

// --- Ablations -----------------------------------------------------------

// Multicast strategy: the paper's serial per-receiver broadcast vs the
// binomial tree MPI_Bcast uses (Section V-C discusses the tree's log(r)
// cost; the tree shortens wall-clock shuffle at equal load).
func BenchmarkAblationMulticastSequential(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = fig9Run(b, cluster.AlgCoded, 3, false)
	}
	b.ReportMetric(s, "shuffle_s")
}

func BenchmarkAblationMulticastTree(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = fig9Run(b, cluster.AlgCoded, 3, true)
	}
	b.ReportMetric(s, "shuffle_s")
}

// Redundancy sweep at K=6 (the "impact of r" trend of Section V-C): load
// falls as ~1/r while CodeGen group count rises as C(K, r+1).
func BenchmarkAblationRSweep(b *testing.B) {
	for _, r := range []int{1, 2, 3, 4, 5} {
		r := r
		b.Run(benchName("r", r), func(b *testing.B) {
			var loadMB float64
			for i := 0; i < b.N; i++ {
				job, err := cluster.RunLocal(cluster.Spec{
					Algorithm: cluster.AlgCoded, K: 6, R: r, Rows: 12000, Seed: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				loadMB = float64(job.ShuffleLoadBytes) / 1e6
			}
			b.ReportMetric(loadMB, "load_MB")
			b.ReportMetric(float64(combin.Binomial(6, r+1)), "groups")
		})
	}
}

// Worker-count sweep at r=3 (the "impact of K" trend): simulated 12 GB
// speedup shrinks as K grows.
func BenchmarkAblationKSweep(b *testing.B) {
	cm := simnet.Default()
	for _, k := range []int{8, 12, 16, 20, 24} {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				base, _, err := simnet.Simulate(simnet.Workload{Rows: simnet.Rows12GB, K: k}, cm)
				if err != nil {
					b.Fatal(err)
				}
				codedB, _, err := simnet.Simulate(simnet.Workload{
					Rows: simnet.Rows12GB, K: k, R: 3, Coded: true,
				}, cm)
				if err != nil {
					b.Fatal(err)
				}
				speedup = base.Total().Seconds() / codedB.Total().Seconds()
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// End-to-end live engines at matched scale: the full wall-clock pipelines
// without traffic shaping (compute-bound comparison).
func BenchmarkLiveTeraSortK8(b *testing.B) {
	benchLive(b, cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 8, Rows: 40000, Seed: 1})
}

func BenchmarkLiveCodedK8R3(b *testing.B) {
	benchLive(b, cluster.Spec{Algorithm: cluster.AlgCoded, K: 8, R: 3, Rows: 40000, Seed: 1})
}

func benchLive(b *testing.B, spec cluster.Spec) {
	b.Helper()
	b.SetBytes(spec.Rows * kv.RecordSize)
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunLocal(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}

// Parallel vs serial schedule (the paper's "Asynchronous Execution"
// future direction): same load, overlapping egress links.
func BenchmarkAblationSerialSchedule(b *testing.B) {
	benchSchedule(b, false)
}

func BenchmarkAblationParallelSchedule(b *testing.B) {
	benchSchedule(b, true)
}

func benchSchedule(b *testing.B, parallel bool) {
	b.Helper()
	var s float64
	for i := 0; i < b.N; i++ {
		job, err := cluster.RunLocal(cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 4, Rows: 20000, Seed: 3,
			RateMbps: 2000, ParallelShuffle: parallel,
		})
		if err != nil {
			b.Fatal(err)
		}
		s = job.Times[stats.StageShuffle].Seconds()
	}
	b.ReportMetric(s, "shuffle_s")
}

// Straggler sensitivity of the serial schedule (coded-computing context
// the paper cites).
func BenchmarkAblationStraggler(b *testing.B) {
	for _, factor := range []float64{1, 2, 4} {
		factor := factor
		b.Run(fmt.Sprintf("slow=%.0fx", factor), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				job, err := cluster.RunLocal(cluster.Spec{
					Algorithm: cluster.AlgTeraSort, K: 4, Rows: 20000, Seed: 3,
					RateMbps: 2000, StragglerFactor: factor,
				})
				if err != nil {
					b.Fatal(err)
				}
				s = job.Times[stats.StageShuffle].Seconds()
			}
			b.ReportMetric(s, "shuffle_s")
		})
	}
}

// Streaming pipelined shuffle (the paper's Section VII "Asynchronous
// Execution" direction): the same netem-shaped job with the monolithic
// stage-by-stage schedule vs the chunked pipeline that overlaps
// Pack/Encode, the wire, and Unpack/Decode. total_s is end-to-end
// wall time; shuffle_s is the (overlapped) shuffle stage.
func benchPipelined(b *testing.B, spec cluster.Spec) {
	b.Helper()
	var total, shuffle float64
	for i := 0; i < b.N; i++ {
		job, err := cluster.RunLocal(spec)
		if err != nil {
			b.Fatal(err)
		}
		total = job.Total()
		shuffle = job.Times[stats.StageShuffle].Seconds()
	}
	b.ReportMetric(total, "total_s")
	b.ReportMetric(shuffle, "shuffle_s")
}

func pipelineSpec(alg cluster.Algorithm, r, chunkRows int, parallel bool) cluster.Spec {
	return cluster.Spec{
		Algorithm: alg, K: 4, R: r, Rows: 200000, Seed: 11,
		RateMbps: 1000, ParallelShuffle: parallel,
		ChunkRows: chunkRows, Window: 8,
	}
}

// The schedule progression per engine: the paper's serial one-sender
// schedule, the asynchronous all-senders schedule, and the full streaming
// pipeline (asynchronous + chunked, stages overlapped). Chunk sizes give
// each stream ~5-8 chunks of pipeline depth: TeraSort streams are
// Rows/K^2 rows, coded streams are segments of one file's IVs (r x C(K,r)/K
// times smaller), so the tuned sizes differ.
func BenchmarkPipelineTeraSortSerial(b *testing.B) {
	benchPipelined(b, pipelineSpec(cluster.AlgTeraSort, 0, 0, false))
}

func BenchmarkPipelineTeraSortParallel(b *testing.B) {
	benchPipelined(b, pipelineSpec(cluster.AlgTeraSort, 0, 0, true))
}

func BenchmarkPipelineTeraSortChunked(b *testing.B) {
	benchPipelined(b, pipelineSpec(cluster.AlgTeraSort, 0, 2000, true))
}

func BenchmarkPipelineCodedSerial(b *testing.B) {
	benchPipelined(b, pipelineSpec(cluster.AlgCoded, 2, 0, false))
}

func BenchmarkPipelineCodedParallel(b *testing.B) {
	benchPipelined(b, pipelineSpec(cluster.AlgCoded, 2, 0, true))
}

func BenchmarkPipelineCodedChunked(b *testing.B) {
	benchPipelined(b, pipelineSpec(cluster.AlgCoded, 2, 800, true))
}

// Reduce-stage sort algorithm: stdlib comparison sort (the paper uses
// std::sort) vs LSD radix on the fixed-width TeraGen keys.
func BenchmarkAblationReduceComparisonSort(b *testing.B) {
	base := kv.NewGenerator(1, kv.DistUniform).Generate(0, 200000)
	b.SetBytes(int64(base.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := base.Clone()
		b.StartTimer()
		r.Sort()
	}
}

func BenchmarkAblationReduceRadixSort(b *testing.B) {
	base := kv.NewGenerator(1, kv.DistUniform).Generate(0, 200000)
	b.SetBytes(int64(base.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := base.Clone()
		b.StartTimer()
		r.SortRadix()
	}
}

// Coded Grep (the paper's "Beyond Sorting" direction): shuffle load of
// filtered records, coded vs uncoded.
func BenchmarkBeyondSortingCodedGrep(b *testing.B) {
	// The first 8 value bytes hold the row id; filler text starts after.
	match := func(rec []byte) bool { return rec[kv.KeySize+8] == 'Q' }
	var gain float64
	for i := 0; i < b.N; i++ {
		mesh := memnet.NewMesh(4)
		var wg sync.WaitGroup
		loads := make([]int64, 2)
		// Uncoded (r=1) then coded (r=2) on the same mesh.
		for mode, r := range []int{1, 2} {
			var total int64
			var mu sync.Mutex
			for rank := 0; rank < 4; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					ep := transport.WithCollectives(mesh.Endpoint(rank), transport.BcastSequential)
					res, err := codedpkg.Run(ep, codedpkg.Config{K: 4, R: r, Rows: 20000, Seed: 5, Filter: match}, nil)
					if err != nil {
						b.Error(err)
						return
					}
					mu.Lock()
					total += res.ShuffleBytes
					mu.Unlock()
				}(rank)
			}
			wg.Wait()
			loads[mode] = total
		}
		mesh.Close()
		gain = float64(loads[0]) / float64(loads[1])
	}
	b.ReportMetric(gain, "load_gain")
}
