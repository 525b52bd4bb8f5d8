package engine

import (
	"time"

	"codedterasort/internal/stats"
)

// StageEvent reports one completed timed stage to the hooks.
type StageEvent struct {
	// Rank is the node that ran the stage.
	Rank int
	// Stage is the timeline column the stage is charged to.
	Stage stats.Stage
	// Elapsed is the stage's clock time (wall or virtual, whichever clock
	// drives the run).
	Elapsed time.Duration
	// Err is the stage body's error, nil on success.
	Err error
}

// Hooks observe stage execution. The runtime fires StageStart before a
// timed stage's body and StageEnd after it returns (before the post-stage
// barrier). All instrumentation rides on these hooks: the engine's
// timeline is charged through TimelineHooks, and the cluster runtime
// attaches its stage log the same way — there is no inline instrumentation
// left in the graph builder.
type Hooks struct {
	// StageStart fires before a timed stage's body runs. May be nil.
	StageStart func(rank int, s stats.Stage)
	// StageEnd fires after the body returns. May be nil.
	StageEnd func(StageEvent)
}

// Then composes hooks: h fires first, then next.
func (h Hooks) Then(next Hooks) Hooks {
	return Hooks{
		StageStart: func(rank int, s stats.Stage) {
			h.start(rank, s)
			next.start(rank, s)
		},
		StageEnd: func(ev StageEvent) {
			h.end(ev)
			next.end(ev)
		},
	}
}

func (h Hooks) start(rank int, s stats.Stage) {
	if h.StageStart != nil {
		h.StageStart(rank, s)
	}
}

func (h Hooks) end(ev StageEvent) {
	if h.StageEnd != nil {
		h.StageEnd(ev)
	}
}

// TimelineHooks charges each completed stage's elapsed time to tl — the
// per-stage hook form of stats.Timeline.Measure. Compose it first so the
// timeline is current when later hooks observe the event.
func TimelineHooks(tl *stats.Timeline) Hooks {
	return Hooks{StageEnd: func(ev StageEvent) {
		tl.AddDuration(ev.Stage, ev.Elapsed)
	}}
}
