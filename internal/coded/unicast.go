package coded

import (
	"fmt"
	"os"
	"sync"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/engine"
	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// This file holds the shuffle topology of R = 1, the TeraSort baseline of
// the paper's Section III: every node sends each of its K-1 intermediate
// values to its reducer by unicast. The coded path would produce the same
// bytes at R = 1, but with no packet ever cancelled its spill Map would keep
// every remote-bound IV in memory as side information; spooling them to
// disk instead keeps the out-of-core worker inside its budget.

// addUnicast adds the shuffle of R = 1: Pack, serial unicast and Unpack
// (monolithic), one streaming stage that packs, ships and unpacks chunk by
// chunk (chunked), or the same stream read from the Map's disk spools into
// the sorter (spill).
func (w *worker) addUnicast(g *engine.Graph) {
	g.Add(engine.Stage{Kind: engine.KindPack, Modes: engine.In(engine.ModeMono),
		Needs: []string{"store"}, Provides: []string{"packed"}, Run: w.packStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.In(engine.ModeMono),
		Needs: []string{"packed"}, Provides: []string{"inbound"}, Run: w.shuffleStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.In(engine.ModeChunked),
		Needs: []string{"store"}, Provides: []string{"decoded"}, Run: w.streamStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.In(engine.ModeSpill),
		Needs: []string{"sorter", "spools"}, Run: w.streamSpillStage})
	g.Add(engine.Stage{Kind: engine.KindUnpack, Modes: engine.In(engine.ModeMono),
		Needs: []string{"inbound"}, Provides: []string{"decoded"}, Run: w.unpackStage})
}

// outbound returns the intermediate value this node's Map produced for
// reducer dst: at R = 1 the node stores exactly one file, its own singleton.
func (w *worker) outbound(dst int) kv.Records {
	return w.store.IV(dst, combin.NewSet(w.rank))
}

// sampleFile draws the stride sample of one on-disk input file. Peer file
// sizes are not visible locally, so each file samples its own positions at
// the stride of k files of this size — identical to the global stride when
// the files split the input evenly, and a valid per-file sample otherwise.
func sampleFile(path string, k, size int) (kv.Records, error) {
	st, err := os.Stat(path)
	if err != nil {
		return kv.Records{}, fmt.Errorf("coded: sample input file: %w", err)
	}
	rows := st.Size() / int64(kv.RecordSize)
	return extsort.SampleFile(path, partition.SampleStride(rows*int64(k), size))
}

// openSpools creates the per-destination shuffle spools of the spilling Map
// under dir, framed at ChunkRows (the granularity the shuffle streams them
// at), and returns the Map's remote-bound route into them. Peak memory is
// one input block plus K partial spool blocks.
func (w *worker) openSpools(ctx *engine.Context, dir string) (func(int, combin.Set, kv.Records) error, error) {
	w.spools = make([]*extsort.Spool, w.cfg.K)
	w.spoolBlock = make([]int64, w.cfg.K)
	ctx.Defer(func() {
		for _, sp := range w.spools {
			if sp != nil {
				sp.Close()
			}
		}
	})
	for dst := 0; dst < w.cfg.K; dst++ {
		if dst == w.rank {
			continue
		}
		sp, err := extsort.NewSpool(dir, w.cfg.ChunkRows)
		if err != nil {
			return nil, err
		}
		w.spools[dst] = sp
	}
	return func(dst int, _ combin.Set, recs kv.Records) error {
		return w.spools[dst].Append(recs)
	}, nil
}

// finishSpools flushes every spool and accounts its volume.
func (w *worker) finishSpools() error {
	for dst, sp := range w.spools {
		if sp == nil {
			continue
		}
		blocks, err := sp.Finish()
		if err != nil {
			return err
		}
		w.spoolBlock[dst] = blocks
		w.result.Spill.Add(stats.SpillStats{RawBytes: sp.RawBytes(), DiskBytes: sp.DiskBytes()})
	}
	return nil
}

// packStage serializes each remote-bound intermediate value into one
// contiguous payload so the shuffle pushes a single framed message per IV
// (Section V-A's rationale: one TCP flow per intermediate value). The K-1
// destinations pack independently, so they pack concurrently.
func (w *worker) packStage(ctx *engine.Context) error {
	w.packed = make([][]byte, w.cfg.K)
	return parallel.Do(ctx.Procs, w.cfg.K, func(dst int) error {
		if dst != w.rank {
			w.packed[dst] = codec.PackIV(w.outbound(dst))
		}
		return nil
	})
}

// shuffleStage runs the serial unicast schedule of Fig 9(a): node 0 sends
// its K-1 intermediate values back-to-back, then node 1, and so on.
// Receives are posted up front so the single active sender never blocks.
func (w *worker) shuffleStage(ctx *engine.Context) error {
	recvErr := make(chan error, 1)
	w.inbound = make([][]byte, w.cfg.K)
	go func() {
		for src := 0; src < w.cfg.K; src++ {
			if src == w.rank {
				continue
			}
			p, err := ctx.Ep.Recv(src, transport.MakeTag(tagShuffle, uint16(src), uint16(w.rank)))
			if err != nil {
				recvErr <- err
				return
			}
			w.inbound[src] = p
		}
		recvErr <- nil
	}()
	send := func() error {
		for dst := 0; dst < w.cfg.K; dst++ {
			if dst == w.rank {
				continue
			}
			if err := ctx.Ep.Send(dst, transport.MakeTag(tagShuffle, uint16(w.rank), uint16(dst)), w.packed[dst]); err != nil {
				return err
			}
			ctx.Counters.SentBytes += int64(len(w.packed[dst]))
		}
		return nil
	}
	if err := ctx.Schedule(transport.MakeTag(tagToken, 0, 0), send); err != nil {
		return err
	}
	return <-recvErr
}

// unpackStage deserializes the received payloads back to record buffers.
// The unpack is zero-copy — the worker owns the received buffers and keeps
// them until Reduce — and the K-1 sources validate concurrently.
func (w *worker) unpackStage(ctx *engine.Context) error {
	w.decoded = make([]kv.Records, w.cfg.K)
	return parallel.Do(ctx.Procs, w.cfg.K, func(src int) error {
		p := w.inbound[src]
		if src == w.rank || p == nil {
			return nil
		}
		iv, err := codec.UnpackIVZeroCopy(p)
		if err != nil {
			return fmt.Errorf("from rank %d: %w", src, err)
		}
		w.decoded[src] = iv
		return nil
	})
}

// streamStage is the pipelined replacement for Pack+Shuffle+Unpack: every
// per-destination intermediate value travels as a stream of ChunkRows-record
// chunks. Packing chunk n+1 overlaps the flight of chunk n (Send is
// asynchronous), receivers unpack each chunk on arrival in per-source
// goroutines, and the windowed credit protocol bounds in-flight chunks so
// neither side ever materializes a monolithic packed copy of its data.
func (w *worker) streamStage(ctx *engine.Context) error {
	w.decoded = make([]kv.Records, w.cfg.K)
	return w.unicastStreams(ctx, func(src int) func(kv.Records) error {
		out := &w.decoded[src]
		return func(recs kv.Records) error {
			*out = out.AppendRecords(recs)
			return nil
		}
	}, func(s *transport.StreamSender, dst int) error {
		iv := w.outbound(dst)
		n := codec.NumChunks(iv.Len(), w.cfg.ChunkRows)
		for c := 0; c < n; c++ {
			lo, hi := codec.ChunkSpan(iv.Len(), w.cfg.ChunkRows, c)
			// One pooled buffer per chunk, recycled as soon as the
			// transport hands it back (Send does not alias after return),
			// so the steady-state stream allocates nothing.
			if err := ship(ctx, s, codec.FramePackedChunk(uint32(c), c == n-1, iv.Slice(lo, hi))); err != nil {
				return err
			}
		}
		return nil
	})
}

// streamSpillStage is the out-of-core streaming shuffle. It reuses the
// chunk protocol of streamStage, but neither side holds a stream's records:
// the sender reads each per-destination spool back block by block (one
// chunk per spool block), and receivers append every decoded chunk to the
// runtime's budget-bounded sorter, which spills sorted runs as the budget
// fills.
func (w *worker) streamSpillStage(ctx *engine.Context) error {
	return w.unicastStreams(ctx, func(int) func(kv.Records) error {
		return ctx.SpillAppend
	}, func(s *transport.StreamSender, dst int) error {
		n := w.spoolBlock[dst]
		if n == 0 {
			// Empty stream: one last-flagged empty chunk closes it.
			return ship(ctx, s, codec.FramePackedChunk(0, true, kv.Records{}))
		}
		rd, err := w.spools[dst].Reader()
		if err != nil {
			return err
		}
		for c := int64(0); c < n; c++ {
			block, err := rd.Next()
			if err != nil {
				return fmt.Errorf("spool for rank %d: %w", dst, err)
			}
			if err := ship(ctx, s, codec.FramePackedChunk(uint32(c), c == n-1, block)); err != nil {
				return err
			}
		}
		return nil
	})
}

// unicastStreams runs one chunk stream per ordered node pair: a receive
// goroutine per source hands each decoded chunk to consumer(src), while the
// serial (or parallel) sender schedule calls send for every destination's
// stream in rank order and drains its credits.
func (w *worker) unicastStreams(ctx *engine.Context, consumer func(src int) func(kv.Records) error,
	send func(s *transport.StreamSender, dst int) error) error {
	recvErrs := make([]error, w.cfg.K)
	var wg sync.WaitGroup
	for src := 0; src < w.cfg.K; src++ {
		if src == w.rank {
			continue
		}
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			recvErrs[src] = w.chunkRx(ctx, src, consumer(src)).Run(&ctx.Counters)
		}(src)
	}
	sendAll := func() error {
		for dst := 0; dst < w.cfg.K; dst++ {
			if dst == w.rank {
				continue
			}
			s := w.streamSender(ctx, dst)
			if err := send(s, dst); err != nil {
				return err
			}
			if err := s.Drain(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Schedule(transport.MakeTag(tagToken, 0, 0), sendAll); err != nil {
		// Mirror shuffleStage: don't wait for receivers whose sources may
		// be gone; they unblock with ErrClosed at teardown.
		return err
	}
	wg.Wait()
	for _, err := range recvErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkRx builds the receive driver of one inbound unicast chunk stream:
// point-to-point receives from src, per-chunk credits, and the zero-copy
// packed-IV decode (the frame is ours and dies right after the records are
// copied out of it by consume).
func (w *worker) chunkRx(ctx *engine.Context, src int, consume func(kv.Records) error) engine.ChunkRx {
	dataTag := transport.MakeTag(tagChunk, uint16(src), uint16(w.rank))
	ackTag := transport.MakeTag(tagChunkAck, uint16(w.rank), uint16(src))
	return engine.ChunkRx{
		Recv: func() ([]byte, error) { return ctx.Ep.Recv(src, dataTag) },
		Ack:  func() error { return transport.StreamAck(ctx.Ep, src, ackTag) },
		Decode: func(_ int, payload []byte) (kv.Records, error) {
			recs, err := codec.UnpackIVZeroCopy(payload)
			if err != nil {
				return kv.Records{}, fmt.Errorf("chunk from rank %d: %w", src, err)
			}
			return recs, nil
		},
		Consume: consume,
		WrapStreamErr: func(err error) error {
			return fmt.Errorf("chunk stream from rank %d: %w", src, err)
		},
	}
}

// streamSender opens the windowed unicast chunk stream to dst.
func (w *worker) streamSender(ctx *engine.Context, dst int) *transport.StreamSender {
	dataTag := transport.MakeTag(tagChunk, uint16(w.rank), uint16(dst))
	ackTag := transport.MakeTag(tagChunkAck, uint16(dst), uint16(w.rank))
	return transport.NewStreamSender(ctx.Ep, dst, dataTag, ackTag, w.cfg.Window)
}

// ship sends one framed chunk, accounts it, and recycles the frame buffer
// (Send does not alias it after return).
func ship(ctx *engine.Context, s *transport.StreamSender, frame []byte) error {
	if err := s.Send(frame); err != nil {
		return err
	}
	ctx.Counters.SentBytes += int64(len(frame))
	ctx.Counters.ChunksSent++
	codec.Recycle(frame)
	return nil
}
