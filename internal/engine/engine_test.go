package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/codec"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

func barrierTag(s stats.Stage) transport.Tag {
	return transport.MakeTag(0x7F, uint16(s), 0xFFFF)
}

// TestKindStats: every kind maps onto the shared stage axis (Sample and
// CodeGen share the CodeGen column, like Pack/Encode share theirs), and an
// unknown kind maps nowhere.
func TestKindStats(t *testing.T) {
	want := map[Kind]stats.Stage{
		KindCodeGen: stats.StageCodeGen,
		KindSample:  stats.StageCodeGen,
		KindMap:     stats.StageMap,
		KindPack:    stats.StagePack,
		KindShuffle: stats.StageShuffle,
		KindUnpack:  stats.StageUnpack,
		KindReduce:  stats.StageReduce,
	}
	for k, st := range want {
		got, ok := k.Stats()
		if !ok || got != st {
			t.Errorf("%v: got (%v, %v), want (%v, true)", k, got, ok, st)
		}
	}
	if _, ok := Kind(99).Stats(); ok {
		t.Errorf("Kind(99) must be unknown")
	}
}

// TestPoliciesMode: the scheduler derives the execution mode from the
// policy knobs — MemBudget wins over ChunkRows, ChunkRows alone streams,
// the zero value is monolithic.
func TestPoliciesMode(t *testing.T) {
	cases := []struct {
		p    Policies
		want Mode
	}{
		{Policies{}, ModeMono},
		{Policies{ChunkRows: 100}, ModeChunked},
		{Policies{MemBudget: 1 << 20}, ModeSpill},
		{Policies{ChunkRows: 100, MemBudget: 1 << 20}, ModeSpill},
	}
	for _, c := range cases {
		if got := c.p.Mode(); got != c.want {
			t.Errorf("%+v: mode %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPoliciesNormalize: negative knobs are rejected with the engine's
// name prefix, a budget derives ChunkRows when none is set, and pipelining
// fills the default window.
func TestPoliciesNormalize(t *testing.T) {
	for _, bad := range []Policies{
		{ChunkRows: -1}, {Window: -1}, {MemBudget: -1}, {Parallelism: -1},
	} {
		if _, err := bad.Normalize("enginetest", 4); err == nil {
			t.Errorf("%+v: negative knob accepted", bad)
		} else if !strings.HasPrefix(err.Error(), "enginetest:") {
			t.Errorf("%+v: error %q lacks name prefix", bad, err)
		}
	}
	p, err := (Policies{MemBudget: 1 << 20}).Normalize("enginetest", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkRows <= 0 {
		t.Fatalf("budget did not derive ChunkRows: %+v", p)
	}
	if p.Window != DefaultWindow {
		t.Fatalf("default window not applied: %+v", p)
	}
	p, err = (Policies{ChunkRows: 50, Window: 9}).Normalize("enginetest", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkRows != 50 || p.Window != 9 {
		t.Fatalf("explicit knobs perturbed: %+v", p)
	}
}

// TestGraphEdges: a stage whose need no earlier stage provides fails
// validation, in exactly the modes where the provider is absent.
func TestGraphEdges(t *testing.T) {
	nop := func(*Context) error { return nil }
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: InMemory, Provides: []string{"hashed"}, Run: nop})
	g.Add(Stage{Kind: KindShuffle, Modes: AllModes, Needs: []string{"hashed"}, Run: nop})
	if _, err := g.Schedule(ModeMono); err != nil {
		t.Fatalf("mono schedule: %v", err)
	}
	if _, err := g.Schedule(ModeSpill); err == nil {
		t.Fatal("spill schedule accepted an unmet edge (map only runs in-memory)")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed the unmet spill edge")
	}
}

// TestGraphModeFiltering: the schedule keeps insertion order and picks the
// per-mode stage variant declaratively.
func TestGraphModeFiltering(t *testing.T) {
	nop := func(*Context) error { return nil }
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: nop})
	g.Add(Stage{Kind: KindShuffle, Modes: In(ModeMono), Run: nop})
	g.Add(Stage{Kind: KindShuffle, Modes: Streaming, Run: nop})
	g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: nop})
	for _, m := range []Mode{ModeMono, ModeChunked, ModeSpill} {
		sched, err := g.Schedule(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(sched) != 3 {
			t.Fatalf("%v: %d stages, want 3", m, len(sched))
		}
		if sched[0].Kind != KindMap || sched[1].Kind != KindShuffle || sched[2].Kind != KindReduce {
			t.Fatalf("%v: wrong order %v %v %v", m, sched[0].Kind, sched[1].Kind, sched[2].Kind)
		}
	}
}

// TestRunDrivesStages: a two-rank graph runs its scheduled stages in
// order, charges the timeline through the hooks, fires the per-stage
// hooks, and reports stage errors with the engine's name prefix.
func TestRunDrivesStages(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()

	var mu sync.Mutex
	order := map[int][]Kind{}
	build := func(rank int, failReduce bool) *Graph {
		note := func(k Kind) func(*Context) error {
			return func(ctx *Context) error {
				mu.Lock()
				order[rank] = append(order[rank], k)
				mu.Unlock()
				if failReduce && k == KindReduce {
					return errors.New("boom")
				}
				return nil
			}
		}
		g := NewGraph("enginetest", barrierTag)
		g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: note(KindMap)})
		g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: note(KindReduce)})
		return g
	}

	tls := [2]*stats.Timeline{}
	var events [2][]StageEvent
	errs := [2]error{}
	run := func(r int, wg *sync.WaitGroup) {
		defer wg.Done()
		tls[r] = stats.NewTimeline(stats.NewWallClock())
		hooks := TimelineHooks(tls[r]).Then(Hooks{StageEnd: func(ev StageEvent) {
			events[r] = append(events[r], ev)
		}})
		ep := transport.WithCollectives(mesh.Endpoint(r))
		_, errs[r] = Run(ep, build(r, r == 0), Policies{}, tls[r].Clock(), hooks)
	}
	var wg0, wg1 sync.WaitGroup
	wg0.Add(1)
	wg1.Add(1)
	go run(1, &wg1)
	go run(0, &wg0)
	// Rank 0 fails in Reduce before its barrier, so rank 1's post-Reduce
	// barrier can never complete; close the mesh once rank 0 exits to
	// unblock rank 1 with ErrClosed — the same teardown a real job uses.
	wg0.Wait()
	mesh.Close()
	wg1.Wait()

	if errs[0] == nil || !strings.Contains(errs[0].Error(), "enginetest: rank 0 Reduce stage: boom") {
		t.Fatalf("rank 0 error = %v", errs[0])
	}
	for r := 0; r < 2; r++ {
		want := []Kind{KindMap, KindReduce}
		if fmt.Sprint(order[r]) != fmt.Sprint(want) {
			t.Fatalf("rank %d ran %v, want %v", r, order[r], want)
		}
	}
	// Hooks observed every stage, in order.
	if len(events[0]) != 2 || events[0][0].Stage != stats.StageMap || events[0][1].Stage != stats.StageReduce {
		t.Fatalf("rank 0 hook events: %+v", events[0])
	}
	if events[0][1].Err == nil {
		t.Fatalf("reduce failure not reported to hooks: %+v", events[0][1])
	}
	// The timeline was charged through the hooks (both timed stages).
	if b := tls[0].Breakdown(); b[stats.StageMap] < 0 || b.Total() < 0 {
		t.Fatalf("timeline breakdown: %v", b)
	}
}

// TestRunBarrierSynchronizes: with clean stages, all ranks complete and
// each timed stage ends with a cluster barrier (checked by stage overlap:
// rank 0 cannot enter Reduce before rank 1 finishes Map).
func TestRunBarrierSynchronizes(t *testing.T) {
	const k = 3
	mesh := memnet.NewMesh(k)
	defer mesh.Close()

	var mu sync.Mutex
	mapDone := 0
	errs := [k]error{}
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := NewGraph("enginetest", barrierTag)
			g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: func(*Context) error {
				mu.Lock()
				mapDone++
				mu.Unlock()
				return nil
			}})
			g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: func(*Context) error {
				mu.Lock()
				defer mu.Unlock()
				if mapDone != k {
					return fmt.Errorf("reduce entered with %d/%d maps done", mapDone, k)
				}
				return nil
			}})
			tl := stats.NewTimeline(stats.NewWallClock())
			ep := transport.WithCollectives(mesh.Endpoint(r))
			_, errs[r] = Run(ep, g, Policies{}, tl.Clock(), TimelineHooks(tl))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestContextDeferLIFO: cleanups run when the run ends, last-registered
// first, on success and on failure.
func TestContextDeferLIFO(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	var got []string
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: func(ctx *Context) error {
		ctx.Defer(func() { got = append(got, "a") })
		ctx.Defer(func() { got = append(got, "b") })
		return nil
	}})
	tl := stats.NewTimeline(stats.NewWallClock())
	ep := transport.WithCollectives(mesh.Endpoint(0))
	if _, err := Run(ep, g, Policies{}, tl.Clock(), Hooks{}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b a]" {
		t.Fatalf("cleanup order %v, want [b a]", got)
	}
}

// TestChunkRx: the receive driver consumes a framed chunk stream to its
// last flag in protocol order (ack before decode), hands every decoded
// chunk to the consumer, and counts chunks.
func TestChunkRx(t *testing.T) {
	recs := kv.NewGenerator(7, kv.DistUniform).Generate(0, 10)
	frames := [][]byte{
		append([]byte(nil), codec.FramePackedChunk(0, false, recs.Slice(0, 4))...),
		append([]byte(nil), codec.FramePackedChunk(1, false, recs.Slice(4, 7))...),
		append([]byte(nil), codec.FramePackedChunk(2, true, recs.Slice(7, 10))...),
	}
	next := 0
	acks := 0
	out := kv.MakeRecords(0)
	rx := ChunkRx{
		Recv: func() ([]byte, error) {
			if next >= len(frames) {
				return nil, errors.New("stream overran its last chunk")
			}
			f := frames[next]
			next++
			return f, nil
		},
		Ack: func() error { acks++; return nil },
		Decode: func(_ int, payload []byte) (kv.Records, error) {
			return codec.UnpackIVZeroCopy(payload)
		},
		Consume: func(r kv.Records) error { out = out.AppendRecords(r); return nil },
	}
	var c Counters
	if err := rx.Run(&c); err != nil {
		t.Fatal(err)
	}
	if acks != 3 || c.ChunksReceived() != 3 {
		t.Fatalf("acks=%d chunks=%d, want 3 each", acks, c.ChunksReceived())
	}
	if !out.Equal(recs) {
		t.Fatal("reassembled stream differs from the source records")
	}
}

// TestChunkRxWrapsStreamErrors: framing violations surface through the
// caller's wrapper; decode errors pass through as-is.
func TestChunkRxWrapsStreamErrors(t *testing.T) {
	bad := append([]byte(nil), codec.FramePackedChunk(5, true, kv.Records{})...) // wrong seq
	rx := ChunkRx{
		Recv:          func() ([]byte, error) { return bad, nil },
		Ack:           func() error { return nil },
		Decode:        func(int, []byte) (kv.Records, error) { return kv.Records{}, nil },
		Consume:       func(kv.Records) error { return nil },
		WrapStreamErr: func(err error) error { return fmt.Errorf("wrapped: %w", err) },
	}
	var c Counters
	err := rx.Run(&c)
	if err == nil || !strings.HasPrefix(err.Error(), "wrapped: ") {
		t.Fatalf("stream error not wrapped: %v", err)
	}
}

// TestCreditGate: the gate blocks the window at its bound, one await per
// over-window chunk, and drains the tail.
func TestCreditGate(t *testing.T) {
	awaits := 0
	g := CreditGate{Window: 2, Await: func() error { awaits++; return nil }}
	for i := 0; i < 5; i++ {
		if err := g.Reserve(); err != nil {
			t.Fatal(err)
		}
		g.Sent()
	}
	if awaits != 3 { // chunks 3,4,5 each waited for one credit
		t.Fatalf("awaits=%d during sends, want 3", awaits)
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	if awaits != 5 {
		t.Fatalf("awaits=%d after drain, want 5", awaits)
	}
	// Unwindowed gate never awaits.
	free := CreditGate{Await: func() error { t.Fatal("await on unwindowed gate"); return nil }}
	_ = free.Reserve()
	free.Sent()
	if err := free.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestHooksCompose: Then fires both hook sets in order.
func TestHooksCompose(t *testing.T) {
	var got []string
	h := Hooks{
		StageStart: func(int, stats.Stage) { got = append(got, "a-start") },
		StageEnd:   func(StageEvent) { got = append(got, "a-end") },
	}.Then(Hooks{
		StageEnd: func(StageEvent) { got = append(got, "b-end") },
	})
	h.start(0, stats.StageMap)
	h.end(StageEvent{Stage: stats.StageMap, Elapsed: time.Millisecond})
	if fmt.Sprint(got) != "[a-start a-end b-end]" {
		t.Fatalf("hook order %v", got)
	}
}
