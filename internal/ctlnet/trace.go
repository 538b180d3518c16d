package ctlnet

// Trace-stage catalog of the networked control plane. One span covers one
// reallocation pass — from the earliest report receipt that triggered it
// (stream mode) or the call itself (full pass) to the last assignment
// push — so a finished span attributes the whole receive-to-push path:
// queue wait, measurement-view build, the channel search, gating, and the
// network pushes.

import (
	"time"

	"acorn/internal/obs"
)

// Stage indices for Server pass spans (names in ServerTraceStages).
const (
	// PassStageQueue: earliest triggering report receipt to pass start —
	// the wait for the pass in flight (or a Reallocate holding the pass
	// mutex) plus the consumer's wake-up. Zero for direct full passes.
	PassStageQueue = iota
	// PassStageView: report snapshot, TTL quarantine, and the
	// measurement-view build (buildView + search seeding).
	PassStageView
	// PassStageAssoc: empty. It is marked right after PassStageView and
	// reads about zero: a report lists only its AP's own clients, so a
	// networked pass has no association stage. The stage keeps its slot
	// so the stage catalog (and the tools that read "assoc" from it)
	// stays stable.
	PassStageAssoc
	// PassStageAlloc: the Algorithm 2 channel search.
	PassStageAlloc
	// PassStageGate: anti-flap gate verdicts and assignment install.
	PassStageGate
	// PassStagePush: assignment pushes to connected agents.
	PassStagePush
	// PassStageFinal: post-push bookkeeping (allocation metrics, pass
	// counters) before the span closes.
	PassStageFinal

	numPassStages
)

// ServerTraceStages names the pass stages, indexed by the constants above.
var ServerTraceStages = []string{
	"queue", "view", "assoc", "alloc", "gate", "push", "final",
}

// Attribution bucket indices (names in ServerTraceAttrs).
const (
	// PassAttrRankEval: wall time inside fresh channel-rank evaluations
	// (AllocStats.RankNanos) and the count of such evaluations.
	PassAttrRankEval = iota
)

// ServerTraceAttrs names the pass attribution buckets.
var ServerTraceAttrs = []string{"rank_eval"}

// NewServerTracer builds a tracer configured for Server pass spans. ring
// <= 0 picks the default; sample follows obs.TracerOptions semantics (0
// off, 1 everything, N one-in-N); now may be nil (time.Now).
func NewServerTracer(ring, sample int, now func() time.Time) *obs.Tracer {
	return obs.NewTracer(obs.TracerOptions{
		Ring:   ring,
		Sample: sample,
		Stages: ServerTraceStages,
		Attrs:  ServerTraceAttrs,
		Now:    now,
	})
}
