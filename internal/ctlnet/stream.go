package ctlnet

// Event-driven controller mode: instead of waiting for the next periodic
// Reallocate, every accepted report that changes its AP's measurements
// marks the AP dirty in a coalesced set (latest-wins per AP — a storm of
// reports from one AP is one unit of work) and wakes a consumer goroutine.
// The consumer drains the set the way core's StreamController pumps, with
// no timer, expands it one hop through the reported hear-graph, and runs a
// reallocation restricted to that neighbourhood — built, priced and
// pushed over only the hear-graph components it touches — with every
// proposed switch judged by a core.SwitchGate (goodput hysteresis, per-AP
// token buckets, flap accounting). A watchdog forces a periodic full
// ungated-streak pass so vetoed or failed work is never stranded.
//
// With Stream.Enabled false the server only runs full passes, and even in
// stream mode the public Reallocate remains the authoritative full pass
// (it bypasses the streak rule but still pays rate tokens, so the per-AP
// switch-rate bound holds across both paths).

import (
	"fmt"
	"sync"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
)

// DefaultStreamWatchdog bounds how stale the last full pass may get before
// the stream consumer forces one.
const DefaultStreamWatchdog = 2 * time.Minute

// StreamConfig switches the server into event-driven mode and tunes it.
type StreamConfig struct {
	// Enabled turns report-triggered reallocation on. Off, the server only
	// reallocates when Reallocate is called (the periodic mode).
	Enabled bool
	// Gate parameterizes the anti-flap switch gate shared by the streaming
	// and full passes. The zero value takes core's defaults.
	Gate core.GateOptions
	// WatchdogPeriod bounds the age of the last successful full pass; past
	// it the consumer forces one (bypassing the streak hysteresis, so
	// sustained-but-vetoed improvements eventually land). Zero means
	// DefaultStreamWatchdog; negative disables the watchdog.
	WatchdogPeriod time.Duration
}

func (c StreamConfig) watchdogPeriod() time.Duration {
	return timeout(c.WatchdogPeriod, DefaultStreamWatchdog)
}

// streamState is the server's event-mode machinery, all guarded by its own
// mutex so report handlers never contend with a running allocation.
type streamState struct {
	mu       sync.Mutex
	gate     *core.SwitchGate
	dirty    map[string]bool
	earliest time.Time // receive time of the oldest report in the dirty set
	wake     chan struct{}
	stopc    chan struct{}
	lastFull time.Time

	marks, coalesced   uint64
	passes, fullPasses uint64
	failed             uint64
	vetoed, applied    uint64
}

// ServerStreamStats snapshots the event-driven mode for tests and
// introspection.
type ServerStreamStats struct {
	Enabled    bool
	DirtyDepth int
	// Marks counts reports that dirtied an AP; Coalesced counts the subset
	// absorbed into an already-dirty AP (the queue's latest-wins merges).
	Marks, Coalesced uint64
	// Passes counts neighbourhood-restricted reallocations; FullPasses
	// counts watchdog- or Reallocate-driven full ones. Failed counts passes
	// that errored (their dirty set is requeued, not lost).
	Passes, FullPasses, Failed uint64
	// SwitchesVetoed / SwitchesApplied count gate decisions on proposed
	// channel switches across both pass kinds.
	SwitchesVetoed, SwitchesApplied uint64
	LastFull                        time.Time
	Gate                            core.GateStats
}

// startStream launches the consumer goroutine. Idempotent; a no-op unless
// Stream.Enabled.
func (s *Server) startStream() {
	if !s.Stream.Enabled {
		return
	}
	st := &s.stream
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stopc != nil {
		return
	}
	if st.gate == nil {
		st.gate = core.NewSwitchGate(s.Stream.Gate, nil)
	}
	if st.dirty == nil {
		st.dirty = make(map[string]bool)
	}
	st.wake = make(chan struct{}, 1)
	st.stopc = make(chan struct{})
	st.lastFull = time.Now()
	s.wg.Add(1)
	go s.runStream(st.stopc, st.wake)
}

// stopStream stops the consumer; Close's wg.Wait joins it.
func (s *Server) stopStream() {
	st := &s.stream
	st.mu.Lock()
	stopc := st.stopc
	st.stopc = nil
	st.mu.Unlock()
	if stopc != nil {
		close(stopc)
	}
}

// markDirty records that a batch of APs changed, under one lock
// acquisition, and wakes the consumer once. Each mark's time is its
// report's receipt; the oldest one in the dirty set becomes the origin of
// the next pass's span, so the wait for the pass in flight is attributed.
func (s *Server) markDirty(marks []dirtyMark) {
	if len(marks) == 0 {
		return
	}
	st := &s.stream
	st.mu.Lock()
	if st.dirty == nil {
		st.dirty = make(map[string]bool)
	}
	for _, d := range marks {
		st.marks++
		if st.dirty[d.ap] {
			st.coalesced++
		}
		st.dirty[d.ap] = true
		if st.earliest.IsZero() || d.at.Before(st.earliest) {
			st.earliest = d.at
		}
	}
	wake := st.wake
	s.m().streamDirty.Set(float64(len(st.dirty)))
	st.mu.Unlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// takeDirty drains the dirty set, returning it with the receive time of
// its oldest report (zero when empty).
func (s *Server) takeDirty() (map[string]bool, time.Time) {
	st := &s.stream
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.dirty) == 0 {
		return nil, time.Time{}
	}
	out := st.dirty
	earliest := st.earliest
	st.dirty = make(map[string]bool)
	st.earliest = time.Time{}
	s.m().streamDirty.Set(0)
	return out, earliest
}

// requeueDirty puts a failed pass's work back so the trigger is not lost;
// the pass's origin is restored too, so the retry's latency still counts
// from the original receipt.
func (s *Server) requeueDirty(dirty map[string]bool, earliest time.Time) {
	st := &s.stream
	st.mu.Lock()
	for ap := range dirty {
		st.dirty[ap] = true
	}
	if !earliest.IsZero() && (st.earliest.IsZero() || earliest.Before(st.earliest)) {
		st.earliest = earliest
	}
	s.m().streamDirty.Set(float64(len(st.dirty)))
	st.mu.Unlock()
}

// hearNeighbourhood expands a dirty AP set one hop through the reported
// hear-graph (symmetrized, exactly as buildView wires contention), so a
// restricted pass covers every AP whose spectrum the dirty ones contend
// for. Unknown AP ids are dropped.
func (s *Server) hearNeighbourhood(dirty map[string]bool) map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, 2*len(dirty))
	for ap := range dirty {
		if _, known := s.hellos[ap]; !known {
			continue
		}
		out[ap] = true
		for nb := range s.hears[ap] {
			if _, known := s.hellos[nb]; known {
				out[nb] = true
			}
		}
	}
	return out
}

// hearGraph is the reported hear-graph as a symmetric adjacency: edge
// {a, b} counts every mention of b in a's stored report and of a in b's, so
// it lasts while either report lists the other. applyReports keeps it in
// step with the report table; queries filter it against known hellos, as
// buildView does.
type hearGraph map[string]map[string]int

// link adds (d = 1) or removes (d = -1) the edges of one AP's hear list.
func (g hearGraph) link(ap string, hears []string, d int) {
	for _, o := range hears {
		if o != ap {
			g.add(ap, o, d)
			g.add(o, ap, d)
		}
	}
}

func (g hearGraph) add(a, b string, d int) {
	row := g[a]
	if row == nil {
		row = make(map[string]int)
		g[a] = row
	}
	if row[b] += d; row[b] == 0 {
		delete(row, b)
		if len(row) == 0 {
			delete(g, a)
		}
	}
}

// closure returns the known APs of only plus every AP connected to one of
// them through known APs: the union of their hear-graph components.
func (g hearGraph) closure(only map[string]bool, known map[string]Hello) []string {
	seen := make(map[string]bool, len(only))
	out := make([]string, 0, len(only))
	for ap := range only {
		if _, ok := known[ap]; ok {
			seen[ap] = true
			out = append(out, ap)
		}
	}
	for i := 0; i < len(out); i++ {
		for nb := range g[out[i]] {
			if _, ok := known[nb]; ok && !seen[nb] {
				seen[nb] = true
				out = append(out, nb)
			}
		}
	}
	return out
}

// runStream is the consumer. A wake-up drains the dirty set and keeps
// draining while passes find work, so marks that land during a pass (or
// while Reallocate holds the pass mutex) form the next batch. A failed
// pass ends the drain: the next mark or the coarse tick retries it, and
// the tick keeps the watchdog honest when no events flow.
func (s *Server) runStream(stopc chan struct{}, wake chan struct{}) {
	defer s.wg.Done()
	tickEvery := s.Stream.watchdogPeriod() / 4
	if tickEvery <= 0 || tickEvery > time.Second {
		tickEvery = time.Second
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-wake:
			for s.streamPass() {
			}
		case <-tick.C:
			for s.streamPass() {
			}
			s.maybeWatchdog()
		}
	}
}

// streamPass runs one neighbourhood-restricted, gated reallocation over the
// currently dirty APs, and reports whether it took work and finished it. A
// failed pass requeues its dirty set with its original receipt stamp. The
// pass is traced as one span from the oldest triggering report's receipt
// to the last push, and its latency feeds the server's SLO monitor.
func (s *Server) streamPass() bool {
	dirty, earliest := s.takeDirty()
	if len(dirty) == 0 {
		return false
	}
	only := s.hearNeighbourhood(dirty)
	if len(only) == 0 {
		return true // every dirty id was unknown; nothing to do
	}
	m := s.m()
	var span obs.SpanRef
	if s.Tracer != nil {
		origin := earliest
		if origin.IsZero() {
			origin = s.Tracer.Now()
		}
		span = s.Tracer.Begin("stream", fmt.Sprintf("aps=%d", len(only)), origin)
		span.Mark(PassStageQueue)
	}
	if _, err := s.reallocate(only, false, span); err != nil {
		s.stream.mu.Lock()
		s.stream.failed++
		s.stream.mu.Unlock()
		m.streamFailures.Inc()
		s.stormLogger().Warn("stream pass failed, requeueing", "dirty", len(dirty), "err", err)
		s.requeueDirty(dirty, earliest)
		return false
	}
	span.MarkEnd(PassStageFinal)
	if !earliest.IsZero() {
		s.SLO.Observe(time.Since(earliest))
	}
	s.stream.mu.Lock()
	s.stream.passes++
	s.stream.mu.Unlock()
	m.streamPasses.With("local").Inc()
	return true
}

// maybeWatchdog forces a full pass when the last one is too old, so work
// stranded by vetoes, failures, or lost wake-ups always lands eventually.
func (s *Server) maybeWatchdog() {
	period := s.Stream.watchdogPeriod()
	if period <= 0 || s.KnownAgents() == 0 {
		return
	}
	st := &s.stream
	st.mu.Lock()
	due := time.Since(st.lastFull) > period
	st.mu.Unlock()
	if !due {
		return
	}
	s.m().streamWatchdog.Inc()
	if _, err := s.Reallocate(); err != nil {
		s.log().Warn("watchdog full pass failed", "err", err)
		// lastFull advances only on success, so the watchdog retries on the
		// next tick rather than going quiet for another full period.
	}
}

// noteFullPass records a successful unrestricted reallocation.
func (s *Server) noteFullPass() {
	st := &s.stream
	st.mu.Lock()
	st.fullPasses++
	st.lastFull = time.Now()
	st.mu.Unlock()
	if s.Stream.Enabled {
		s.m().streamPasses.With("full").Inc()
	}
}

// StreamStats snapshots the event-driven mode.
func (s *Server) StreamStats() ServerStreamStats {
	st := &s.stream
	st.mu.Lock()
	out := ServerStreamStats{
		Enabled:         s.Stream.Enabled,
		DirtyDepth:      len(st.dirty),
		Marks:           st.marks,
		Coalesced:       st.coalesced,
		Passes:          st.passes,
		FullPasses:      st.fullPasses,
		Failed:          st.failed,
		SwitchesVetoed:  st.vetoed,
		SwitchesApplied: st.applied,
		LastFull:        st.lastFull,
	}
	gate := st.gate
	st.mu.Unlock()
	if gate != nil {
		out.Gate = gate.Stats()
	}
	return out
}

// GateSwitchTimes exposes the per-AP committed switch timestamps inside the
// flap window — nil when stream mode never started. Chaos tests assert the
// rate invariant directly on these.
func (s *Server) GateSwitchTimes() map[string][]time.Time {
	st := &s.stream
	st.mu.Lock()
	gate := st.gate
	st.mu.Unlock()
	if gate == nil {
		return nil
	}
	return gate.SwitchTimes()
}
