package coded

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestPipelinedBoundsPeakMemory is the bounded-memory regression test for
// the streaming pipeline: at equal Rows, the chunked engine must hold a
// clearly smaller peak live heap than the monolithic one. The monolithic
// engine retains two extra full-size copies of the remote-bound data on
// every worker — the packed send buffers and the received packed payloads
// (the unpacked records alias the received buffers since the zero-copy
// Unpack) — while the pipelined engine's transient state is
// O(ChunkRows x Window) per stream.
//
// Peak measurement: a sampler goroutine polls runtime.MemStats.HeapAlloc
// while the cluster runs, with GC pressure turned up so HeapAlloc tracks
// the live set closely. The engines retain their buffers on the worker
// structs until Run returns, so the peak is a plateau, not a spike — easy
// to catch by sampling.
func TestPipelinedBoundsPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression test is slow under -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(10))

	const k, rows = 4, 160000 // 16 MB of records cluster-wide

	measure := func(chunkRows int) uint64 {
		return peakHeap(func() {
			runAll(t, Config{K: k, R: 1, Rows: rows, Seed: 77, ChunkRows: chunkRows, Window: 4})
		})
	}

	monolithic := measure(0)
	pipelined := measure(1000)
	t.Logf("peak heap: monolithic %.1f MB, pipelined %.1f MB",
		float64(monolithic)/1e6, float64(pipelined)/1e6)
	// The structural saving is ~2 full copies of the remote-bound data
	// (about 1.5 partitions per worker at K=4, against a reduce-dominated
	// baseline); demand at least a 10% drop so sampler and GC noise cannot
	// fake a pass. A pipeline that buffered whole streams again would land
	// at or above 1.0.
	if float64(pipelined) > 0.90*float64(monolithic) {
		t.Fatalf("pipelined peak heap %.1f MB not well below monolithic %.1f MB",
			float64(pipelined)/1e6, float64(monolithic)/1e6)
	}
}

// peakHeap runs fn while a sampler goroutine polls
// runtime.MemStats.HeapAlloc, and returns the highest value seen.
func peakHeap(fn func()) uint64 {
	runtime.GC()
	stop := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		var peak uint64
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			default:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	fn()
	close(stop)
	return <-peakCh
}
