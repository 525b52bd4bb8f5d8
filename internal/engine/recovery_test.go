package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// TestFaultsFindWithout: Find matches on (rank, stage), Without consumes
// every fault of a rank and leaves the rest.
func TestFaultsFindWithout(t *testing.T) {
	fs := Faults{
		{Rank: 1, Stage: stats.StageMap, Kind: FaultKill},
		{Rank: 1, Stage: stats.StageShuffle, Kind: FaultSlow, Factor: 4},
		{Rank: 2, Stage: stats.StageShuffle, Kind: FaultSlow, Delay: time.Second},
	}
	if f := fs.Find(1, stats.StageMap); f == nil || f.Kind != FaultKill {
		t.Fatalf("Find(1, Map) = %v", f)
	}
	if f := fs.Find(0, stats.StageMap); f != nil {
		t.Fatalf("Find(0, Map) = %v, want nil", f)
	}
	rest := fs.Without(1)
	if len(rest) != 1 || rest[0].Rank != 2 {
		t.Fatalf("Without(1) = %v", rest)
	}
	if len(fs) != 3 {
		t.Fatalf("Without mutated the receiver: %v", fs)
	}
}

// TestFaultsValidate: out-of-range ranks, unknown stages and kinds, and
// negative stalls are rejected with the engine's name prefix.
func TestFaultsValidate(t *testing.T) {
	for _, bad := range []Faults{
		{{Rank: -1, Stage: stats.StageMap}},
		{{Rank: 4, Stage: stats.StageMap}},
		{{Rank: 0, Stage: stats.NumStages}},
		{{Rank: 0, Stage: stats.StageMap, Kind: FaultKind(9)}},
		{{Rank: 0, Stage: stats.StageMap, Kind: FaultSlow, Factor: -1}},
		{{Rank: 0, Stage: stats.StageMap, Kind: FaultSlow, Delay: -time.Second}},
	} {
		if err := bad.Validate("enginetest", 4); err == nil {
			t.Errorf("%v: accepted", bad)
		}
	}
	ok := Faults{{Rank: 3, Stage: stats.StageReduce, Kind: FaultSlow, Factor: 4}}
	if err := ok.Validate("enginetest", 4); err != nil {
		t.Fatal(err)
	}
}

// twoStageGraph is a minimal Map -> Reduce graph whose bodies record what
// ran.
func twoStageGraph(ran *[]stats.Stage, mu *sync.Mutex) *Graph {
	note := func(st stats.Stage) func(*Context) error {
		return func(*Context) error {
			mu.Lock()
			*ran = append(*ran, st)
			mu.Unlock()
			return nil
		}
	}
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: note(stats.StageMap)})
	g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: note(stats.StageReduce)})
	return g
}

// TestKillFault: the killed rank exits with *KilledError before the faulty
// stage's body, hooks, and barrier; a supervisor closing the mesh unblocks
// the surviving peer with a transport error (the no-hang property).
func TestKillFault(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	var mu sync.Mutex
	var ran [2][]stats.Stage
	var events [2][]StageEvent
	errs := [2]error{}
	var wg0, wg1 sync.WaitGroup
	run := func(r int, wg *sync.WaitGroup) {
		defer wg.Done()
		tl := stats.NewTimeline(stats.NewWallClock())
		hooks := Hooks{StageEnd: func(ev StageEvent) { events[r] = append(events[r], ev) }}
		ep := transport.WithCollectives(mesh.Endpoint(r))
		p := Policies{Faults: Faults{{Rank: 1, Stage: stats.StageReduce, Kind: FaultKill}}}
		_, errs[r] = Run(ep, twoStageGraph(&ran[r], &mu), p, tl.Clock(), hooks)
	}
	wg0.Add(1)
	wg1.Add(1)
	go run(0, &wg0)
	go run(1, &wg1)
	wg1.Wait() // rank 1 dies at Reduce entry
	var killed *KilledError
	if !errors.As(errs[1], &killed) || killed.Rank != 1 || killed.Stage != stats.StageReduce {
		t.Fatalf("rank 1 error = %v, want KilledError at Reduce", errs[1])
	}
	if len(ran[1]) != 1 || ran[1][0] != stats.StageMap {
		t.Fatalf("killed rank ran %v, want [Map] only", ran[1])
	}
	if len(events[1]) != 1 {
		t.Fatalf("dead rank reported %d stage events, want 1 (death reports nothing)", len(events[1]))
	}
	// Rank 0 is stuck at the Reduce barrier; the supervisor's cancel
	// (mesh close) must unblock it rather than leaving it hung.
	mesh.Close()
	wg0.Wait()
	if errs[0] == nil {
		t.Fatal("surviving rank completed despite a dead peer")
	}
}

// TestSlowFault: the straggler's stage completes with its elapsed time
// inflated by the injected stall, visible to the hooks before the barrier.
func TestSlowFault(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	var mu sync.Mutex
	var ran []stats.Stage
	var reduceElapsed time.Duration
	tl := stats.NewTimeline(stats.NewWallClock())
	hooks := Hooks{StageEnd: func(ev StageEvent) {
		if ev.Stage == stats.StageReduce {
			reduceElapsed = ev.Elapsed
		}
	}}
	ep := transport.WithCollectives(mesh.Endpoint(0))
	const delay = 30 * time.Millisecond
	p := Policies{Faults: Faults{{Rank: 0, Stage: stats.StageReduce, Kind: FaultSlow, Factor: 1, Delay: delay}}}
	if _, err := Run(ep, twoStageGraph(&ran, &mu), p, tl.Clock(), hooks); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v, want both stages", ran)
	}
	if reduceElapsed < delay {
		t.Fatalf("straggler stall not visible: Reduce elapsed %v < %v", reduceElapsed, delay)
	}
}
