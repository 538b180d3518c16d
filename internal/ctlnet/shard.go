package ctlnet

// Inbound sharding: instead of every connection goroutine contending on
// the controller mutex per report, connections are spread over N
// accept/IO shards. Each shard owns a bounded MPSC queue with the same
// coalescing discipline as core/stream.go — latest-wins per AP
// (sequence-aware), shed-oldest-first when full — and a pump goroutine
// that drains the queue in batches and applies each batch to the
// controller under a single lock acquisition. A slow or storming peer
// fills only its shard's queue; its reports coalesce in place and the
// rest of the fleet keeps flowing.

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
)

// DefaultShardQueueCap bounds each shard's pending report queue.
const DefaultShardQueueCap = 4096

// ShardConfig sizes the server's inbound accept/IO sharding.
type ShardConfig struct {
	// N is the number of accept/IO shards. Zero picks
	// min(8, GOMAXPROCS); negative forces a single shard.
	N int
	// QueueCap bounds each shard's pending report queue (reports beyond
	// it shed oldest-first, counted). Zero means DefaultShardQueueCap.
	QueueCap int
}

func (c ShardConfig) shards() int {
	if c.N > 0 {
		return c.N
	}
	if c.N < 0 {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c ShardConfig) queueCap() int {
	if c.QueueCap > 0 {
		return c.QueueCap
	}
	return DefaultShardQueueCap
}

// reportEvent is one queued report with its arrival time.
type reportEvent struct {
	apID string
	rep  Report
	recv time.Time
}

// shard is one accept/IO lane.
type shard struct {
	id  int
	cap int

	wake chan struct{}

	mu    sync.Mutex
	queue []reportEvent
	index map[string]int // apID → index into queue

	// Per-shard counters, bound once at startup.
	enqueued  *obs.Counter
	coalesced *obs.Counter
	shed      *obs.Counter
	batches   *obs.Counter
}

func newShard(id, queueCap int, m *serverMetrics) *shard {
	lbl := strconv.Itoa(id)
	return &shard{
		id:        id,
		cap:       queueCap,
		wake:      make(chan struct{}, 1),
		index:     make(map[string]int),
		enqueued:  m.shardReports.With(lbl),
		coalesced: m.shardCoalesced.With(lbl),
		shed:      m.shardShed.With(lbl),
		batches:   m.shardBatches.With(lbl),
	}
}

// offer enqueues a report with latest-wins coalescing: a pending report
// from the same AP is replaced in place unless the newcomer carries an
// older non-zero sequence (a replay racing a fresh report), which is
// dropped. A full queue sheds its oldest entry first, counted.
func (sh *shard) offer(apID string, rep Report, recv time.Time) {
	sh.mu.Lock()
	sh.enqueued.Inc()
	if i, ok := sh.index[apID]; ok {
		pending := &sh.queue[i]
		if !(rep.Seq != 0 && pending.rep.Seq != 0 && rep.Seq < pending.rep.Seq) {
			pending.rep = rep
			pending.recv = recv
		}
		sh.coalesced.Inc()
		sh.mu.Unlock()
		return
	}
	if len(sh.queue) >= sh.cap {
		// Shed the oldest queued report; its AP loses this interval's
		// update but keeps its stored view — membership is never shed.
		oldest := sh.queue[0]
		copy(sh.queue, sh.queue[1:])
		sh.queue = sh.queue[:len(sh.queue)-1]
		delete(sh.index, oldest.apID)
		for ap, idx := range sh.index {
			sh.index[ap] = idx - 1
		}
		sh.shed.Inc()
	}
	sh.index[apID] = len(sh.queue)
	sh.queue = append(sh.queue, reportEvent{apID: apID, rep: rep, recv: recv})
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// drain moves every queued event into buf (reused across calls) and
// resets the queue, keeping its backing array.
func (sh *shard) drain(buf []reportEvent) []reportEvent {
	sh.mu.Lock()
	buf = append(buf[:0], sh.queue...)
	sh.queue = sh.queue[:0]
	clear(sh.index)
	sh.mu.Unlock()
	return buf
}

// startShards lazily builds the shard set and starts one pump per shard.
// Called from Serve; idempotent.
func (s *Server) startShards() []*shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shardSet != nil {
		return s.shardSet
	}
	m := s.m()
	n := s.Shards.shards()
	qcap := s.Shards.queueCap()
	s.shardStop = make(chan struct{})
	s.shardSet = make([]*shard, n)
	for i := range s.shardSet {
		sh := newShard(i, qcap, m)
		s.shardSet[i] = sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.shardPump(sh)
		}()
	}
	return s.shardSet
}

// stopShards wakes every pump into its stop path.
func (s *Server) stopShards() {
	s.mu.Lock()
	stop := s.shardStop
	s.shardStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// shardPump drains its shard's queue in batches, applying each batch to
// the controller state under one lock acquisition.
func (s *Server) shardPump(sh *shard) {
	s.mu.Lock()
	stop := s.shardStop
	s.mu.Unlock()
	if stop == nil {
		return
	}
	var buf []reportEvent
	for {
		select {
		case <-stop:
			return
		case <-sh.wake:
		}
		for {
			buf = sh.drain(buf)
			if len(buf) == 0 {
				break
			}
			sh.batches.Inc()
			s.applyReports(buf)
		}
	}
}

// applyReports installs a drained batch into the controller's report
// table, preserving the per-AP sequence discipline: out-of-order reports
// are dropped as stale, equal sequences are reconnect replays that keep
// their original receive time (no TTL laundering), fresh reports mark
// their AP dirty in stream mode. A fresh report whose measurements equal
// the stored ones refreshes the stored sequence and receive time but marks
// its AP only while the AP has no assignment yet or the switch gate holds
// a pending proposal for it, which the re-send's pass may then commit.
func (s *Server) applyReports(batch []reportEvent) {
	m := s.m()
	var gate *core.SwitchGate
	if s.Stream.Enabled {
		s.stream.mu.Lock()
		gate = s.stream.gate
		s.stream.mu.Unlock()
	}
	var applied, stale, replayed, unchanged uint64
	var staleAP string
	var dirty []dirtyMark
	s.mu.Lock()
	for i := range batch {
		ev := &batch[i]
		prev, had := s.reports[ev.apID]
		if had && ev.rep.Seq != 0 && ev.rep.Seq < prev.rep.Seq {
			stale++
			staleAP = ev.apID
			continue
		}
		replay := had && ev.rep.Seq != 0 && ev.rep.Seq == prev.rep.Seq
		recv := ev.recv
		if replay {
			recv = prev.recv
		}
		if !had || !slices.Equal(prev.rep.Hears, ev.rep.Hears) {
			if had {
				s.hears.link(ev.apID, prev.rep.Hears, -1)
			}
			s.hears.link(ev.apID, ev.rep.Hears, 1)
		}
		s.reports[ev.apID] = storedReport{rep: ev.rep, recv: recv}
		applied++
		switch {
		case replay:
			replayed++
		case had && equalReportBody(&prev.rep, &ev.rep):
			unchanged++
			_, assigned := s.assign[ev.apID]
			if s.Stream.Enabled && (!assigned || (gate != nil && gate.Pending(ev.apID))) {
				dirty = append(dirty, dirtyMark{ap: ev.apID, at: recv})
			}
		case s.Stream.Enabled:
			dirty = append(dirty, dirtyMark{ap: ev.apID, at: recv})
		}
	}
	s.mu.Unlock()
	if applied > 0 {
		m.reportsTotal.Add(applied)
	}
	if stale > 0 {
		m.reportsStale.Add(stale)
		s.stormLogger().Warn("ignoring stale reports", "count", stale, "lastAP", staleAP)
	}
	if replayed > 0 {
		m.reportsReplayed.Add(replayed)
	}
	if unchanged > 0 {
		m.reportsNoop.Add(unchanged)
	}
	s.markDirty(dirty)
}

// dirtyMark defers a stream-mode dirty marking until the controller lock
// is released (markDirty takes the stream lock once for the whole batch).
type dirtyMark struct {
	ap string
	at time.Time
}
