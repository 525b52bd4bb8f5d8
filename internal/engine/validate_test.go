package engine

import (
	"strings"
	"testing"

	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

func testGraph() *Graph {
	return NewGraph("test", func(stats.Stage) transport.Tag { return transport.Tag(900) })
}

func noop(*Context) error { return nil }

// TestValidateOK: a well-formed multi-mode graph with per-mode stage
// variants validates.
func TestValidateOK(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindMap, Modes: AllModes, Provides: []string{"parts"}, Run: noop}).
		Add(Stage{Kind: KindShuffle, Modes: In(ModeMono), Needs: []string{"parts"}, Provides: []string{"recv"}, Run: noop}).
		Add(Stage{Kind: KindShuffle, Modes: In(ModeChunked, ModeSpill), Needs: []string{"parts"}, Provides: []string{"recv"}, Run: noop}).
		Add(Stage{Kind: KindReduce, Modes: AllModes, Needs: []string{"recv"}, Run: noop})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateMissingNeed: a stage consuming a value no earlier stage of
// its mode provides is rejected, naming the stage, value and mode.
func TestValidateMissingNeed(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindMap, Modes: AllModes, Provides: []string{"parts"}, Run: noop}).
		Add(Stage{Kind: KindReduce, Modes: AllModes, Needs: []string{"recv"}, Run: noop})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), `needs "recv"`) {
		t.Fatalf("Validate = %v, want missing-need error", err)
	}
}

// TestValidateProviderTooLate: providing a value after its consumer is as
// invalid as not providing it — edges are checked against schedule order.
func TestValidateProviderTooLate(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindReduce, Modes: In(ModeMono), Needs: []string{"parts"}, Run: noop}).
		Add(Stage{Kind: KindMap, Modes: In(ModeMono), Provides: []string{"parts"}, Run: noop})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no earlier stage") {
		t.Fatalf("Validate = %v, want ordering error", err)
	}
}

// TestValidateModeScopedNeed: a provider present only in another mode does
// not satisfy a consumer — each populated mode's schedule is checked
// independently.
func TestValidateModeScopedNeed(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindMap, Modes: In(ModeMono), Provides: []string{"parts"}, Run: noop}).
		Add(Stage{Kind: KindReduce, Modes: In(ModeMono, ModeChunked), Needs: []string{"parts"}, Run: noop})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "chunked mode") {
		t.Fatalf("Validate = %v, want chunked-mode need error", err)
	}
}

// TestValidateDuplicateKind: two stages of one timed Kind in the same
// mode's schedule are rejected.
func TestValidateDuplicateKind(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindMap, Modes: AllModes, Run: noop}).
		Add(Stage{Kind: KindMap, Modes: In(ModeChunked), Run: noop})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "two Map stages in chunked mode") {
		t.Fatalf("Validate = %v, want duplicate-kind error", err)
	}
}

// TestValidateUnknownModeBits: mode bits outside AllModes would make a
// stage silently unschedulable, so Validate rejects them.
func TestValidateUnknownModeBits(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindMap, Modes: ModeSet(0x80), Run: noop})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown mode bits") {
		t.Fatalf("Validate = %v, want unknown-mode-bits error", err)
	}
}

// TestScheduleEmptyMode: asking for a mode no stage participates in is an
// error at Schedule time (Validate skips unpopulated modes).
func TestScheduleEmptyMode(t *testing.T) {
	g := testGraph().
		Add(Stage{Kind: KindMap, Modes: In(ModeMono), Run: noop})
	if _, err := g.Schedule(ModeSpill); err == nil || !strings.Contains(err.Error(), "no stages") {
		t.Fatalf("Schedule(spill) = %v, want no-stages error", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate skips unpopulated modes, got %v", err)
	}
}

// TestAddPanics: a stage of unknown kind, with no body or with an empty
// mode set is a builder bug, rejected at Add time.
func TestAddPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("no Run", func() { testGraph().Add(Stage{Kind: KindMap, Modes: AllModes}) })
	mustPanic("no Modes", func() { testGraph().Add(Stage{Kind: KindMap, Run: noop}) })
	mustPanic("unknown Kind", func() { testGraph().Add(Stage{Kind: Kind(99), Modes: AllModes, Run: noop}) })
}

// TestKindStrings pins the diagnostic names of every stage kind and the
// out-of-range fallback.
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindCodeGen: "CodeGen", KindMap: "Map", KindPack: "Pack",
		KindShuffle: "Shuffle", KindUnpack: "Unpack", KindReduce: "Reduce",
		KindSample: "Sample", Kind(99): "Kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestModeAndFaultStrings pins the mode and fault diagnostic renderings.
func TestModeAndFaultStrings(t *testing.T) {
	for m, s := range map[Mode]string{ModeMono: "monolithic", ModeChunked: "chunked", ModeSpill: "spill", Mode(9): "Mode(9)"} {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
	for k, s := range map[FaultKind]string{FaultKill: "kill", FaultSlow: "slow", FaultKind(7): "FaultKind(7)"} {
		if k.String() != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	kill := Fault{Rank: 2, Stage: stats.StageMap, Kind: FaultKill}
	if !strings.Contains(kill.String(), "kill(rank 2") {
		t.Errorf("kill fault renders %q", kill.String())
	}
	slow := Fault{Rank: 1, Stage: stats.StageShuffle, Kind: FaultSlow, Factor: 4}
	if !strings.Contains(slow.String(), "slow(rank 1") {
		t.Errorf("slow fault renders %q", slow.String())
	}
	dead := &KilledError{Rank: 3, Stage: stats.StageReduce}
	if !strings.Contains(dead.Error(), "rank 3 killed at Reduce") {
		t.Errorf("KilledError renders %q", dead.Error())
	}
}
