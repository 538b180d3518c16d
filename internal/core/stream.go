package core

// The event-driven streaming controller: ACORN between the periods.
//
// The paper re-runs the algorithms on a fixed T = 30 min timer, which is
// safe but blind between ticks. PRs 4-5 made both algorithms incremental
// enough that per-event re-optimization is affordable; this file makes it
// *safe*. Greedy per-event channel moves in a coupled interference graph
// oscillate unless damped (Faridi et al., Bellalta et al.), so the stream
// is built around three invariants:
//
//   1. Bounded memory. Events enter a bounded queue with latest-wins
//      coalescing per client; an arrival met by a departure annihilates.
//      When the queue is full the shed policy drops the oldest report-kind
//      entry first (reports are self-refreshing), membership events only as
//      a last resort — every drop counted and logged, never silent.
//   2. No flapping. Every proposed channel switch passes the SwitchGate:
//      goodput hysteresis (the switch must beat the incumbent by a relative
//      margin, sustained over K consecutive evaluations) plus a per-AP
//      token bucket. An AP can exceed burst + rate·window switches in no
//      window of any length — by construction, not by measurement.
//   3. Graceful degradation. Saturation (queue depth over threshold for a
//      sustained interval) or the incremental engines latching off degrade
//      the stream to deferred batched mode: events still apply (membership
//      and associations stay fresh — those are O(1)-ish), but channel
//      re-optimization is deferred and batched. A watchdog bounds the
//      staleness: if the stream stays degraded or saturated past
//      WatchdogPeriod it forces a full periodic pass — the paper's
//      Reallocate plus a roaming sweep — which also resets engine
//      fallbacks. The ladder is: per-event local reopt → deferred batch on
//      recovery → watchdog full pass.
//
// Re-optimization after an event is *local*: the event's dirty APs are
// expanded one hop through the association engine's contention aggregates
// (conflictNeighbourhood) and Algorithm 2 runs with AllocOptions.Only
// restricted to that set, reusing the dirty-rank cache. Proposed switches
// are then replayed through the gate and only approved ones install, so a
// single noisy report can never ripple a reconfiguration across the floor.
//
// DESIGN.md §12 carries the full failure-model discussion.

import (
	"sync"
	"time"

	"acorn/internal/obs"
	"acorn/internal/spectrum"
	"acorn/internal/wlan"
)

// EventKind discriminates stream events.
type EventKind uint8

const (
	// EventArrive introduces a client (Algorithm 1 admission).
	EventArrive EventKind = iota
	// EventDepart removes a client.
	EventDepart
	// EventReport is a measurement refresh for a present client; it
	// re-evaluates the client's association with roaming hysteresis and
	// dirties its neighbourhood.
	EventReport
)

func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventDepart:
		return "depart"
	case EventReport:
		return "report"
	}
	return "unknown"
}

// Event is one unit of streaming work. Arrive and report events carry the
// client object; depart events need only the ID.
type Event struct {
	Kind   EventKind
	Client *wlan.Client
	// ClientID names the subject for EventDepart; for the other kinds it is
	// derived from Client when empty.
	ClientID string
	// Recv is the upstream receive instant (e.g. when ctlnet read the
	// report off the wire). When set and tracing is on, the event's span
	// starts here, so the "ingest" stage attributes transport and
	// handling time before enqueue. Zero means the span starts at
	// enqueue. Latency metrics are unaffected (still enqueue-to-applied).
	Recv time.Time
}

// key returns the coalescing key (the subject client's ID).
func (ev Event) key() string {
	if ev.ClientID != "" {
		return ev.ClientID
	}
	if ev.Client != nil {
		return ev.Client.ID
	}
	return ""
}

// streamEntry is one queue slot. Coalescing mutates ev in place; annihilation
// and shedding tombstone the slot (dead) instead of splicing the queue.
type streamEntry struct {
	ev   Event
	at   time.Time // first enqueue time — decision latency is measured from here
	dead bool
	// noop marks a report whose roaming decision changed nothing (same
	// incarnation, same AP): it dirties nothing and feeds the no-op
	// latency ring instead of being hidden in the overall quantiles.
	noop bool
	// span traces the entry through the pipeline. Coalescing keeps the
	// original span (matching at); a dead entry's span is simply
	// abandoned — only finished spans are ever exported.
	span obs.SpanRef
}

// StreamController wraps a Controller with the event-driven mode. Offer may
// be called from any goroutine (the producer side of the MPSC queue); the
// pump side is serialized internally. Use Start/Stop for a background
// consumer, or call Pump directly for deterministic replay.
type StreamController struct {
	ctrl   *Controller
	opts   StreamOptions
	gate   *SwitchGate
	log    *obs.Logger
	m      *streamMetrics
	now    func() time.Time
	tracer *obs.Tracer // nil = tracing off
	latWin *obs.Window // sliding window behind the windowed quantiles
	slo    *obs.SLO    // nil = no budget monitor

	// mu guards the queue and the counter block.
	mu      sync.Mutex
	queue   []*streamEntry
	head    int
	nDead   int
	live    int
	pending map[string]*streamEntry
	closed  bool
	c       streamCounters

	// pumpMu serializes consumers; everything below it is pump-owned.
	pumpMu   sync.Mutex
	degraded bool
	satSince time.Time
	deferred map[string]bool
	lastFull time.Time
	lat      *latRing
	noopLat  *latRing       // no-op report decisions only (the fast-path floor)
	curBatch []*streamEntry // batch being pumped; reoptimize marks its spans

	wake  chan struct{}
	stopc chan struct{}
	wg    sync.WaitGroup
}

// streamCounters is the mu-guarded half of StreamStats.
type streamCounters struct {
	offered, coalesced, annihilated uint64
	shedReports, shedCritical       uint64
	applied, noopSkips              uint64
	maxDepth                        int
	degradations                    uint64
	localReopts, batchedReopts      uint64
	fullPasses, watchdogFires       uint64
	engineDeferrals, genericReopts  uint64
	switchesApplied                 uint64
	degraded                        bool
}

// NewStreamController builds the streaming mode around ctrl. The caller must
// stop driving ctrl's mutating methods directly: membership and association
// changes flow through Offer/Pump from then on.
func NewStreamController(ctrl *Controller, opts StreamOptions) *StreamController {
	now := opts.now()
	s := &StreamController{
		ctrl:     ctrl,
		opts:     opts,
		gate:     NewSwitchGate(opts.Gate, now),
		log:      obsLoggerOr(opts.Log),
		m:        bindStreamMetrics(ctrl.registry()),
		now:      now,
		tracer:   opts.Tracer,
		latWin:   obs.NewWindow(opts.latencyWindow(), 0, nil, now),
		slo:      opts.SLO,
		pending:  make(map[string]*streamEntry),
		deferred: make(map[string]bool),
		lastFull: now(),
		lat:      newLatRing(opts.RecordLatencies),
		noopLat:  newLatRing(opts.RecordLatencies),
		wake:     make(chan struct{}, 1),
	}
	// Windowed quantiles as live gauges: unlike the cumulative decision
	// histogram these answer "how is the stream doing right now".
	reg := ctrl.registry()
	reg.GaugeFunc("acorn_stream_decision_p50_window_seconds",
		"windowed p50 decision latency (last LatencyWindow)",
		func() float64 { return s.latWin.Quantile(0.50) })
	reg.GaugeFunc("acorn_stream_decision_p99_window_seconds",
		"windowed p99 decision latency (last LatencyWindow)",
		func() float64 { return s.latWin.Quantile(0.99) })
	return s
}

func obsLoggerOr(l *obs.Logger) *obs.Logger {
	if l != nil {
		return l
	}
	return obs.Nop
}

// Gate exposes the switch gate (read-only use: stats and history).
func (s *StreamController) Gate() *SwitchGate { return s.gate }

// Offer enqueues an event, coalescing against any pending entry for the same
// client. It returns false only when the stream is closed or the event names
// no client; a true return means the event was accounted for — queued,
// coalesced, or annihilated (shedding may later drop it, counted).
func (s *StreamController) Offer(ev Event) bool {
	key := ev.key()
	if key == "" {
		return false
	}
	if (ev.Kind == EventArrive || ev.Kind == EventReport) && ev.Client == nil {
		return false
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.c.offered++
	s.m.offered.Inc()

	if prev := s.pending[key]; prev != nil {
		switch {
		case ev.Kind == EventReport && prev.ev.Kind == EventReport:
			// Latest report wins; the wait clock keeps the first enqueue
			// time so coalescing never hides queueing delay.
			prev.ev = ev
			s.coalescedLocked()
		case ev.Kind == EventReport:
			// A pending arrive/depart already forces a fresh evaluation (or
			// makes one moot); the report adds nothing.
			s.coalescedLocked()
		case ev.Kind == EventDepart && prev.ev.Kind == EventArrive:
			// The client left before its arrival was ever processed: both
			// events cancel.
			s.killLocked(key, prev)
			s.c.annihilated++
			s.m.annihilated.Inc()
		case ev.Kind == EventDepart && prev.ev.Kind == EventReport:
			prev.ev = ev
			s.coalescedLocked()
		case ev.Kind == EventArrive && prev.ev.Kind == EventReport:
			prev.ev = ev
			s.coalescedLocked()
		case ev.Kind == EventArrive && prev.ev.Kind == EventArrive:
			prev.ev = ev // refreshed geometry; latest wins
			s.coalescedLocked()
		default:
			// Arrive after a pending depart: genuinely ordered work — the
			// depart must process first, then the (re-)arrival. Append a
			// second entry; later offers coalesce onto it.
			s.appendLocked(key, ev)
		}
	} else {
		s.appendLocked(key, ev)
	}

	depth := s.live
	s.m.depth.Set(float64(depth))
	if depth > s.c.maxDepth {
		s.c.maxDepth = depth
	}
	s.mu.Unlock()

	select {
	case s.wake <- struct{}{}:
	default:
	}
	return true
}

func (s *StreamController) coalescedLocked() {
	s.c.coalesced++
	s.m.coalesced.Inc()
}

// killLocked tombstones a queued entry and detaches it from the pending map.
func (s *StreamController) killLocked(key string, en *streamEntry) {
	en.dead = true
	s.nDead++
	s.live--
	if s.pending[key] == en {
		delete(s.pending, key)
	}
}

// appendLocked adds a fresh entry, shedding first when at capacity, and
// compacts the tombstone backlog when it outgrows the live set.
func (s *StreamController) appendLocked(key string, ev Event) {
	for s.live >= s.opts.maxQueue() {
		s.shedLocked()
	}
	en := &streamEntry{ev: ev, at: s.now()}
	if s.tracer != nil {
		origin := ev.Recv
		if origin.IsZero() {
			origin = en.at
		}
		en.span = s.tracer.Begin(ev.Kind.String(), key, origin)
		en.span.Mark(TraceStageIngest)
	}
	s.queue = append(s.queue, en)
	s.live++
	s.pending[key] = en
	if s.nDead > s.opts.maxQueue() && s.nDead > 2*s.live {
		s.compactLocked()
	}
}

// shedLocked drops one live entry to make room: the oldest report if any
// (reports are refreshed by the subject's next report), else the oldest
// entry of any kind — a critical shed, counted separately because dropped
// membership changes stay wrong until the watchdog's next full pass.
func (s *StreamController) shedLocked() {
	victim := -1
	for i := s.head; i < len(s.queue); i++ {
		if en := s.queue[i]; !en.dead && en.ev.Kind == EventReport {
			victim = i
			break
		}
	}
	critical := victim < 0
	if critical {
		for i := s.head; i < len(s.queue); i++ {
			if !s.queue[i].dead {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		return // nothing live to shed (MaxQueue 0 cannot happen: accessor ≥ 1)
	}
	en := s.queue[victim]
	s.killLocked(en.ev.key(), en)
	if critical {
		s.c.shedCritical++
		s.m.shed.With("critical").Inc()
		s.log.Warn("stream: shed membership event under overload",
			"kind", en.ev.Kind.String(), "client", en.ev.key())
	} else {
		s.c.shedReports++
		s.m.shed.With("report").Inc()
		s.log.Warn("stream: shed report under overload", "client", en.ev.key())
	}
}

// compactLocked rebuilds the queue without tombstones so storms of
// annihilated or shed entries cannot grow the slice without bound: queue
// memory stays O(MaxQueue) no matter the offered rate.
func (s *StreamController) compactLocked() {
	alive := make([]*streamEntry, 0, s.live)
	for _, en := range s.queue[s.head:] {
		if !en.dead {
			alive = append(alive, en)
		}
	}
	s.queue = alive
	s.head = 0
	s.nDead = 0
}

// take pops up to max live entries in FIFO order.
func (s *StreamController) take(max int) []*streamEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*streamEntry
	for s.head < len(s.queue) && len(out) < max {
		en := s.queue[s.head]
		s.queue[s.head] = nil
		s.head++
		if en.dead {
			s.nDead--
			continue
		}
		s.live--
		if key := en.ev.key(); s.pending[key] == en {
			delete(s.pending, key)
		}
		out = append(out, en)
	}
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
		s.nDead = 0
	}
	s.m.depth.Set(float64(s.live))
	return out
}

// Depth returns the current number of live queued entries.
func (s *StreamController) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Pump drains one batch of events, applies them, and runs the bounded
// re-optimization / degradation / watchdog machinery. It returns the number
// of events applied. Safe to call concurrently with Offer; concurrent Pumps
// serialize. Deterministic replay (internal/dynamic) calls it directly with
// a virtual clock; Start's background loop calls it on wake-ups.
func (s *StreamController) Pump() int {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()

	batch := s.take(s.opts.maxBatch())
	s.curBatch = batch
	for _, en := range batch {
		en.span.Mark(TraceStageQueue)
	}
	dirty := make(map[string]bool)
	for _, en := range batch {
		// Batch peers ahead of this event apply between its queue mark and
		// this one; peers behind it are charged by the second batch mark
		// below (stage durations accumulate).
		en.span.Mark(TraceStageBatch)
		for _, ap := range s.apply(en) {
			if ap != "" {
				dirty[ap] = true
			}
		}
		en.span.Mark(TraceStageAdmit)
	}
	for _, en := range batch {
		en.span.Mark(TraceStageBatch)
	}

	now := s.now()
	depth := s.Depth()
	s.updateDegradation(now, depth)

	if len(dirty) > 0 {
		if s.degraded || s.ctrl.engineOff {
			// Rung 2: membership and associations stayed fresh above, but
			// channel re-optimization is deferred and batched.
			for ap := range dirty {
				s.deferred[ap] = true
			}
			if s.ctrl.engineOff {
				s.bump(func(c *streamCounters) { c.engineDeferrals++ })
			}
		} else {
			only := s.ctrl.conflictNeighbourhood(dirty)
			for _, en := range batch {
				en.span.Mark(TraceStageNeigh)
			}
			s.reoptimize(only, false, &s.c.localReopts, s.m.localReopts)
		}
	}

	s.maybeWatchdog(now, depth)

	// Decision latency: enqueue to applied-and-reoptimized.
	done := s.now()
	for _, en := range batch {
		d := done.Sub(en.at)
		s.m.decision.Observe(d.Seconds())
		s.lat.add(d)
		if en.noop {
			s.noopLat.add(d)
		}
		s.latWin.Observe(d.Seconds())
		s.slo.Observe(d)
		en.span.MarkEnd(TraceStageFinal)
	}
	s.curBatch = nil
	if n := len(batch); n > 0 {
		s.bump(func(c *streamCounters) { c.applied += uint64(n) })
		s.m.applied.Add(uint64(n))
	}
	s.m.flapping.Set(float64(s.gate.Stats().FlappingAPs))
	// The engine's counters (memo hits, fast beacons, partition updates)
	// move on every admission and roam; publish them per batch, not only
	// on the engine rebuilds and sweeps a stream rarely runs.
	s.ctrl.publishEngineStats()
	return len(batch)
}

// bump mutates the counter block under mu. Pump-side code may also capture
// addresses of individual s.c fields (they are stable) as long as the writes
// themselves happen inside a bump closure.
func (s *StreamController) bump(f func(*streamCounters)) {
	s.mu.Lock()
	f(&s.c)
	s.mu.Unlock()
}

// apply executes one event against the wrapped controller and returns the
// AP IDs it dirtied (previous and new homes of the subject client). The
// association-engine call is attributed into the entry's span so a span
// separates "admission stage" from "engine evaluation inside it".
func (s *StreamController) apply(en *streamEntry) []string {
	c := s.ctrl
	ev := en.ev
	var t0 time.Time
	if en.span.Active() {
		t0 = s.tracer.Now()
	}
	var dirty []string
	switch ev.Kind {
	case EventArrive:
		s.ensureMember(ev.Client)
		d := c.Admit(ev.Client)
		dirty = []string{d.APID}
	case EventDepart:
		id := ev.key()
		prev := c.cfg.Assoc[id]
		c.Evict(id)
		c.Network.RemoveClient(id)
		dirty = []string{prev}
	case EventReport:
		// A report for the incarnation the network already holds carries no
		// new geometry; if the roaming decision then keeps the client where
		// it was, no maintained aggregate moved and the event is a pure
		// no-op — skip the conflict-neighbourhood re-optimization entirely.
		// A refreshed incarnation (new *wlan.Client under the same ID) must
		// still re-optimize even when the client stays put: its hearing sets
		// changed the contention state.
		sameInc := c.Network.Client(ev.Client.ID) == ev.Client
		s.ensureMember(ev.Client)
		prev := c.cfg.Assoc[ev.Client.ID]
		d := c.Roam(ev.Client, s.opts.roamMargin())
		if sameInc && d.APID == prev {
			en.noop = true
			s.bump(func(cs *streamCounters) { cs.noopSkips++ })
			s.m.noopSkips.Inc()
			break
		}
		dirty = []string{prev, d.APID}
	}
	if en.span.Active() {
		en.span.Attr(TraceAttrAssocEval, s.tracer.Now().Sub(t0), 1)
	}
	return dirty
}

// ensureMember makes u a member of the wrapped network, replacing a stale
// incarnation (same ID, different object — refreshed geometry) if present.
func (s *StreamController) ensureMember(u *wlan.Client) {
	n := s.ctrl.Network
	old := n.Client(u.ID)
	if old == u {
		return
	}
	if old != nil {
		n.RemoveClient(u.ID)
	}
	n.Clients = append(n.Clients, u)
}

// updateDegradation advances the saturation state machine.
func (s *StreamController) updateDegradation(now time.Time, depth int) {
	if depth >= s.opts.degradeDepth() {
		if s.satSince.IsZero() {
			s.satSince = now
		}
		if !s.degraded && now.Sub(s.satSince) >= s.opts.degradeAfter() {
			s.degraded = true
			s.bump(func(c *streamCounters) { c.degradations++; c.degraded = true })
			s.m.degraded.Set(1)
			s.m.degradations.Inc()
			s.log.Warn("stream: degraded to deferred batched mode", "depth", depth)
		}
		return
	}
	s.satSince = time.Time{}
	if s.degraded && depth <= s.opts.recoverBelow() {
		s.degraded = false
		s.bump(func(c *streamCounters) { c.degraded = false })
		s.m.degraded.Set(0)
		s.log.Info("stream: recovered from deferred batched mode", "depth", depth)
		if len(s.deferred) > 0 {
			only := s.ctrl.conflictNeighbourhood(s.deferred)
			s.deferred = make(map[string]bool)
			s.reoptimize(only, false, &s.c.batchedReopts, s.m.batched)
		}
	}
}

// maybeWatchdog forces a full periodic pass when the stream has been unable
// to keep the configuration fresh for a whole WatchdogPeriod: still
// degraded, still saturated, the engines latched off, or deferred dirty
// work pending. A healthy, keeping-up stream never needs one.
func (s *StreamController) maybeWatchdog(now time.Time, depth int) {
	if now.Sub(s.lastFull) < s.opts.watchdogPeriod() {
		return
	}
	stuck := s.degraded || len(s.deferred) > 0 || s.ctrl.engineOff ||
		depth >= s.opts.degradeDepth()
	if !stuck {
		s.lastFull = now // healthy: restart the staleness clock
		return
	}
	s.bump(func(c *streamCounters) { c.watchdogFires++ })
	s.m.watchdog.Inc()
	s.log.Warn("stream: watchdog forcing full pass",
		"degraded", s.degraded, "deferred_aps", len(s.deferred), "depth", depth)
	s.fullPass(now)
}

// FullPass runs the paper's periodic tick on demand: a roaming sweep over
// every present client followed by a whole-network re-optimization, exactly
// the pass the watchdog forces. Switch proposals bypass the hysteresis
// streak (a full pass is authoritative) but still pay rate-limit tokens.
// One-shot callers (acornd -stream) use it to anchor the final
// configuration after draining their events; it serializes with Pump.
func (s *StreamController) FullPass() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.fullPass(s.now())
}

// fullPass is the paper's periodic tick run inside the stream: a roaming
// sweep over every present client, then whole-network Algorithm 2. Switch
// proposals bypass the hysteresis streak (a full pass is authoritative) but
// still pay rate-limit tokens, so the no-flap bound survives even here.
func (s *StreamController) fullPass(now time.Time) {
	c := s.ctrl
	clients := append([]*wlan.Client(nil), c.Network.Clients...)
	c.RoamAll(clients, s.opts.roamMargin())
	s.reoptimize(nil, true, &s.c.fullPasses, s.m.fullPasses)
	s.deferred = make(map[string]bool)
	s.lastFull = now
}

// reoptimize runs Algorithm 2 restricted to only (nil = whole network),
// replays the proposed switches through the gate, and installs the approved
// subset. counter/metric identify which ladder rung ran.
func (s *StreamController) reoptimize(only map[string]bool, bypassStreak bool, counter *uint64, metric *obs.Counter) {
	c := s.ctrl
	s.bump(func(*streamCounters) { *counter++ })
	metric.Inc()

	span := s.m.reopt.Start()
	var est *Estimator
	opts := s.opts.Alloc
	if e := c.engineFor(); e != nil {
		est = e.vendEstimator()
		// Reuse the engine's incrementally maintained contention partition:
		// an Only-restricted re-optimization then skips the graph build.
		opts.Partition = e.partitionHandle()
	} else {
		est = NewEstimator(c.Network)
	}
	opts.Only = only
	_, st := AllocateChannels(c.Network, c.cfg, est, opts)
	span.End()
	for _, en := range s.curBatch {
		// Every span in the batch waited on this re-optimization; charge
		// the stage to all of them and attribute the rank-evaluation share.
		en.span.Attr(TraceAttrRankEval, time.Duration(st.RankNanos), uint64(st.Evals.RankEvals))
		en.span.Mark(TraceStageReopt)
	}
	if st.Evals.FullEvals > 0 {
		// The incremental engine silently fell back to the generic sweep —
		// count it; the saturation machinery will degrade if it persists.
		s.bump(func(cs *streamCounters) { cs.genericReopts++ })
	}

	// Gate and install. Each proposal's relative gain is measured against
	// the estimate the greedy search held just before that switch.
	var next *wlan.Config
	applied := 0
	for _, rec := range st.History {
		pre := rec.Estimate - rec.Rank
		rel := 0.0
		if pre > 0 {
			rel = rec.Rank / pre
		}
		if !s.gate.Consider(rec.AP, rec.Channel, rel, bypassStreak) {
			continue
		}
		if next == nil {
			next = c.cfg.Clone()
		}
		if next.Channels[rec.AP] != rec.Channel {
			next.Channels[rec.AP] = rec.Channel
			applied++
		}
	}
	if next != nil {
		c.cfg = next
		// New channels may make an unrepresentable binding representable
		// again, exactly as Reallocate does.
		c.engineOff = false
	}
	if applied > 0 {
		s.bump(func(cs *streamCounters) { cs.switchesApplied += uint64(applied) })
		s.m.switches.Add(uint64(applied))
	}
	RecordAllocMetrics(c.registry(), st, c.cfg)
	for _, en := range s.curBatch {
		en.span.Mark(TraceStageGate)
	}
}

// Start launches the background consumer: it pumps on every Offer wake-up
// and on a coarse tick that keeps the watchdog honest when no events flow.
func (s *StreamController) Start() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	if s.stopc != nil {
		return
	}
	s.stopc = make(chan struct{})
	s.wg.Add(1)
	go s.run(s.stopc)
}

func (s *StreamController) run(stopc chan struct{}) {
	defer s.wg.Done()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-s.wake:
		case <-tick.C:
		}
		for s.Pump() > 0 {
		}
	}
}

// Stop closes the stream (Offer returns false from now on), stops the
// background consumer if one is running, and drains whatever is queued so
// no accepted event is lost.
func (s *StreamController) Stop() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pumpMu.Lock()
	stopc := s.stopc
	s.stopc = nil
	s.pumpMu.Unlock()
	if stopc != nil {
		close(stopc)
		s.wg.Wait()
	}
	for s.Pump() > 0 {
	}
}

// Stats returns a snapshot of the stream.
func (s *StreamController) Stats() StreamStats {
	s.mu.Lock()
	out := StreamStats{
		Offered:         s.c.offered,
		Coalesced:       s.c.coalesced,
		Annihilated:     s.c.annihilated,
		ShedReports:     s.c.shedReports,
		ShedCritical:    s.c.shedCritical,
		Applied:         s.c.applied,
		NoopSkips:       s.c.noopSkips,
		Depth:           s.live,
		QueueLen:        len(s.queue) - s.head,
		MaxDepth:        s.c.maxDepth,
		Degraded:        s.c.degraded,
		Degradations:    s.c.degradations,
		LocalReopts:     s.c.localReopts,
		BatchedReopts:   s.c.batchedReopts,
		FullPasses:      s.c.fullPasses,
		WatchdogFires:   s.c.watchdogFires,
		EngineDeferrals: s.c.engineDeferrals,
		GenericReopts:   s.c.genericReopts,
		SwitchesApplied: s.c.switchesApplied,
	}
	s.mu.Unlock()
	out.Gate = s.gate.Stats()
	// Windowed quantiles: what the stream looks like over the last
	// LatencyWindow — a late-run regression shows here while the
	// cumulative figures still average it away.
	out.LatencyP50 = time.Duration(s.latWin.Quantile(0.50) * float64(time.Second))
	out.LatencyP99 = time.Duration(s.latWin.Quantile(0.99) * float64(time.Second))
	out.LatencyWindowCount = s.latWin.Count()
	if s.lat != nil {
		out.LatencyP50Cum = s.lat.quantile(0.50)
		out.LatencyP99Cum = s.lat.quantile(0.99)
		out.LatencyCount = s.lat.count()
	}
	if s.noopLat != nil {
		out.NoopLatencyP50 = s.noopLat.quantile(0.50)
		out.NoopLatencyP99 = s.noopLat.quantile(0.99)
		out.NoopLatencyCount = s.noopLat.count()
	}
	return out
}

// Tracer returns the stream's tracer (nil when tracing is off).
func (s *StreamController) Tracer() *obs.Tracer { return s.tracer }

// LatencyWindow exposes the sliding window behind the windowed quantiles.
func (s *StreamController) LatencyWindow() *obs.Window { return s.latWin }

// conflictNeighbourhood expands a dirty AP set one hop through the
// association engine's contention aggregates: an AP joins the neighbourhood
// if it carrier-senses (or is sensed by) a dirty AP directly, or shares
// client-mediated contention with one. A nil return means "whole network"
// (the engine is unavailable, so no bound can be trusted); an empty dirty
// set yields an empty neighbourhood (no AP may switch).
func (c *Controller) conflictNeighbourhood(dirty map[string]bool) map[string]bool {
	e := c.engineFor()
	if e == nil {
		return nil
	}
	out := make(map[string]bool, 4*len(dirty))
	for apID := range dirty {
		i, ok := e.apIdx[apID]
		if !ok {
			continue
		}
		out[apID] = true
		for o := range e.aps {
			if o == i {
				continue
			}
			if e.apapDir[i][o] || e.apapDir[o][i] || e.cntHome[i][o]+e.cntHome[o][i] > 0 {
				out[e.apIDs[o]] = true
			}
		}
	}
	return out
}

// SwitchGate is the anti-flap guard every proposed channel switch must pass:
// goodput hysteresis sustained over a streak of evaluations, then a per-AP
// token bucket. It is shared by the in-process StreamController and the
// networked ctlnet server. Safe for concurrent use.
type SwitchGate struct {
	opts GateOptions
	now  func() time.Time

	mu    sync.Mutex
	aps   map[string]*gateAP
	stats GateStats
}

type gateAP struct {
	pending    spectrum.Channel
	hasPending bool
	streak     int
	tokens     float64
	lastFill   time.Time
	switches   []time.Time
}

// NewSwitchGate builds a gate; now may be nil (time.Now).
func NewSwitchGate(opts GateOptions, now func() time.Time) *SwitchGate {
	if now == nil {
		now = time.Now
	}
	return &SwitchGate{opts: opts, now: now, aps: make(map[string]*gateAP)}
}

// Consider judges one proposed switch of ap to ch with relative goodput gain
// relGain. It returns true when the switch may commit — the caller must then
// actually perform it, because an approval consumes a rate token and counts
// toward the flap window. bypassStreak skips the K-consecutive-evaluations
// rule (watchdog full passes are authoritative); the margin and the token
// bucket always apply, so the rate bound holds unconditionally: no AP ever
// exceeds burst + rate·W switches in any window of length W.
func (g *SwitchGate) Consider(ap string, ch spectrum.Channel, relGain float64, bypassStreak bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	a := g.aps[ap]
	if a == nil {
		a = &gateAP{tokens: float64(g.opts.burst()), lastFill: now}
		g.aps[ap] = a
	}
	g.stats.Proposals++

	if relGain < g.opts.margin() {
		g.stats.MarginVetoes++
		a.hasPending = false
		a.streak = 0
		return false
	}
	if a.hasPending && a.pending == ch {
		a.streak++
	} else {
		a.pending = ch
		a.hasPending = true
		a.streak = 1
	}
	if !bypassStreak && a.streak < g.opts.streak() {
		g.stats.StreakVetoes++
		return false
	}
	if rate := g.opts.ratePerHour(); rate > 0 {
		a.tokens += now.Sub(a.lastFill).Hours() * rate
		if lim := float64(g.opts.burst()); a.tokens > lim {
			a.tokens = lim
		}
		a.lastFill = now
		if a.tokens < 1 {
			// The streak survives: the switch commits once a token refills,
			// without re-earning its K confirmations.
			g.stats.RateVetoes++
			return false
		}
		a.tokens--
	}
	a.switches = append(a.switches, now)
	a.prune(now, g.opts.flapWindow())
	a.hasPending = false
	a.streak = 0
	g.stats.Approved++
	return true
}

// Pending reports whether the gate holds a proposal for ap that has not
// committed yet: one still earning its streak, or one waiting for a rate
// token. Another evaluation of the same proposal may commit it.
func (g *SwitchGate) Pending(ap string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.aps[ap]
	return a != nil && a.hasPending
}

func (a *gateAP) prune(now time.Time, window time.Duration) {
	cut := 0
	for cut < len(a.switches) && now.Sub(a.switches[cut]) > window {
		cut++
	}
	if cut > 0 {
		a.switches = append(a.switches[:0], a.switches[cut:]...)
	}
}

// Stats snapshots the gate's decision counters plus the flap detector's
// current view (per-AP switch counts inside FlapWindow).
func (g *SwitchGate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.stats
	now := g.now()
	for _, a := range g.aps {
		a.prune(now, g.opts.flapWindow())
		n := len(a.switches)
		if n > out.MaxSwitchesPerAP {
			out.MaxSwitchesPerAP = n
		}
		if n >= g.opts.flapThreshold() {
			out.FlappingAPs++
		}
	}
	return out
}

// SwitchTimes returns each AP's switch timestamps inside the flap window —
// the raw material for rate-invariant assertions in tests.
func (g *SwitchGate) SwitchTimes() map[string][]time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	out := make(map[string][]time.Time, len(g.aps))
	for id, a := range g.aps {
		a.prune(now, g.opts.flapWindow())
		if len(a.switches) > 0 {
			out[id] = append([]time.Time(nil), a.switches...)
		}
	}
	return out
}
