package ctlnet

// outbox is the per-connection write side shared by server and agent. All
// outbound traffic is enqueued into latest-wins slots and drained by an
// on-demand writer goroutine into one frame per wakeup. The design kills
// two fleet-scale problems at once:
//
//   - Slow-peer isolation: the enqueue path never blocks on the network.
//     A peer that stops reading stalls only its own writer goroutine,
//     which dies with the connection at the write deadline.
//   - Redundant traffic: assignments coalesce latest-wins while queued,
//     and an assignment identical to the last one written to this
//     connection is dropped entirely (state dedup, kolide-style) — an
//     unchanged fleet costs no push bytes at all.
//
// A write error marks the outbox dead and closes the connection, so the
// peer's read loop notices and the usual reconnect machinery takes over —
// the same semantics the old synchronous send path had.

import (
	"io"
	"net"
	"sync"
	"time"

	"acorn/internal/obs"
)

// outboxMetrics are the wire-level counters an outbox feeds, bound once
// per registry and shared by every connection on that endpoint.
type outboxMetrics struct {
	txBytes   *obs.Counter
	txBatches *obs.Counter
	txMsgs    *obs.Counter

	// Server-side push accounting; nil on agents.
	pushDeduped   *obs.Counter
	pushCoalesced *obs.Counter
	pushErrors    *obs.Counter
	pushWin       *obs.Window

	// Agent-side report accounting; nil on servers.
	reportsCoalesced *obs.Counter
	reportsSame      *obs.Counter
}

type outbox struct {
	conn         net.Conn
	writeTimeout time.Duration
	m            *outboxMetrics

	// wmu serializes raw connection writes: the writer goroutine's batch
	// writes and the synchronous terminal error frame must never
	// interleave bytes on the wire.
	wmu sync.Mutex

	mu      sync.Mutex
	running bool
	dead    bool
	err     error

	pongs    []uint64
	pings    []uint64
	report   *Report // latest-wins pending report (agent side)
	assign   Assign  // latest-wins pending assignment (server side)
	hasAsg   bool
	assignAt time.Time // enqueue time of the pending assignment

	lastPushed Assign // last assignment written, for state dedup
	hasPushed  bool
	// asgScratch carries the taken assignment from flush to writeBatch;
	// a field (not a local) so taking its address never heap-allocates.
	// Only the writer goroutine touches it.
	asgScratch Assign

	// lastRep is a private deep copy of the last full report framed on
	// this connection. A follow-up report with identical content collapses
	// to a seq-only kindReportSame — the kolide-style state-hash channel
	// that makes an unchanged fleet's re-confirmations nearly free. Only
	// the writer goroutine touches it; a private copy so callers mutating
	// a sent report's slices can't desync us from the peer's expansion
	// base.
	lastRep    Report
	hasLastRep bool

	// spare buffers swapped with the pending slices at flush time, so the
	// steady state recycles two arrays instead of allocating per batch.
	sparePongs []uint64
	sparePings []uint64

	enc frameEncoder
}

func newOutbox(conn net.Conn, writeTimeout time.Duration, m *outboxMetrics) *outbox {
	return &outbox{conn: conn, writeTimeout: writeTimeout, m: m}
}

// Err returns the terminal write error, if any.
func (o *outbox) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// kick starts the writer if it is not running. Callers hold o.mu.
func (o *outbox) kick() {
	if o.dead || o.running {
		return
	}
	o.running = true
	go o.writer()
}

func (o *outbox) enqueuePong(seq uint64) {
	o.mu.Lock()
	o.pongs = append(o.pongs, seq)
	o.kick()
	o.mu.Unlock()
}

func (o *outbox) enqueuePing(seq uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return o.err
	}
	o.pings = append(o.pings, seq)
	o.kick()
	return nil
}

// enqueueReport queues a report, coalescing latest-wins against a pending
// one. The replacement is sequence-aware: a caller-stamped older sequence
// (a reconnect replay racing a fresh report) never overwrites a newer
// pending one — it is dropped, exactly as the server would drop it.
func (o *outbox) enqueueReport(rep *Report) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return o.err
	}
	if o.report != nil {
		if rep.Seq != 0 && o.report.Seq != 0 && rep.Seq < o.report.Seq {
			return nil
		}
		if o.m.reportsCoalesced != nil {
			o.m.reportsCoalesced.Inc()
		}
	}
	o.report = rep
	o.kick()
	return nil
}

// pushOutcome classifies what enqueueAssign did with an assignment.
type pushOutcome int

const (
	pushEnqueued pushOutcome = iota
	pushDeduped
	pushDead
)

// enqueueAssign queues an assignment push. An assignment identical to the
// last one written on this connection (with nothing newer pending) is
// deduplicated away; a pending assignment is replaced latest-wins.
func (o *outbox) enqueueAssign(a Assign, at time.Time) pushOutcome {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return pushDead
	}
	if !o.hasAsg && o.hasPushed && o.lastPushed == a {
		if o.m.pushDeduped != nil {
			o.m.pushDeduped.Inc()
		}
		return pushDeduped
	}
	if o.hasAsg && o.m.pushCoalesced != nil {
		o.m.pushCoalesced.Inc()
	}
	o.assign = a
	o.hasAsg = true
	o.assignAt = at
	o.kick()
	return pushEnqueued
}

// sendError writes a terminal error frame, bypassing the batch queue: it
// must hit the wire before the caller drops the connection.
func (o *outbox) sendError(reason string) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	_ = writeOne(o.conn, o.writeTimeout, func(e *frameEncoder) { e.Error(reason) })
}

// writeOne writes a frame holding the one message put encodes, under the
// write deadline. It serves the writes that bypass an outbox's batches:
// an agent's hello, which precedes every other byte, and error replies.
func writeOne(conn net.Conn, writeTimeout time.Duration, put func(*frameEncoder)) error {
	var e frameEncoder
	e.begin()
	put(&e)
	data, err := e.finish()
	if err != nil {
		return err
	}
	if writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	_, err = conn.Write(data)
	return err
}

// writer drains pending state into batched writes until the outbox is
// empty or dead. Spawned on the empty→nonempty transition, it exits as
// soon as there is nothing to send, so an idle connection costs no
// goroutine.
func (o *outbox) writer() {
	for {
		wrote, err := o.flush()
		if err != nil {
			o.mu.Lock()
			o.dead = true
			o.err = err
			o.running = false
			o.mu.Unlock()
			if o.m.pushErrors != nil {
				o.m.pushErrors.Inc()
			}
			// Closing the connection makes the peer's (and our own) read
			// loop notice the failure promptly.
			o.conn.Close()
			return
		}
		if !wrote {
			o.mu.Lock()
			if o.empty() || o.dead {
				o.running = false
				o.mu.Unlock()
				return
			}
			o.mu.Unlock()
		}
	}
}

// empty reports whether nothing is pending. Callers hold o.mu.
func (o *outbox) empty() bool {
	return len(o.pongs) == 0 && len(o.pings) == 0 && o.report == nil && !o.hasAsg
}

// flush writes at most one batch, reporting whether anything was written.
func (o *outbox) flush() (bool, error) {
	o.mu.Lock()
	if o.dead {
		err := o.err
		o.mu.Unlock()
		return false, err
	}
	if o.empty() {
		o.mu.Unlock()
		return false, nil
	}
	pongs := o.pongs
	o.pongs = o.sparePongs[:0]
	o.sparePongs = nil
	pings := o.pings
	o.pings = o.sparePings[:0]
	o.sparePings = nil
	rep := o.report
	o.report = nil
	var asg *Assign
	var asgAt time.Time
	if o.hasAsg {
		o.asgScratch = o.assign
		asg = &o.asgScratch
		asgAt = o.assignAt
		o.hasAsg = false
		o.lastPushed = o.assign
		o.hasPushed = true
	}
	o.mu.Unlock()

	err := o.writeBatch(pongs, pings, rep, asg)
	if err == nil && asg != nil && o.m.pushWin != nil && !asgAt.IsZero() {
		o.m.pushWin.Observe(time.Since(asgAt).Seconds())
	}

	// Recycle the drained slices for the next batch.
	o.mu.Lock()
	if o.sparePongs == nil {
		o.sparePongs = pongs[:0]
	}
	if o.sparePings == nil {
		o.sparePings = pings[:0]
	}
	o.mu.Unlock()
	return true, err
}

// writeBatch encodes one batch as a frame and writes it with a single
// conn.Write under the write deadline.
func (o *outbox) writeBatch(pongs, pings []uint64, rep *Report, asg *Assign) error {
	msgs := uint64(len(pongs) + len(pings))
	o.enc.begin()
	for _, s := range pongs {
		o.enc.Pong(s)
	}
	for _, s := range pings {
		o.enc.Ping(s)
	}
	if rep != nil {
		msgs++
		if o.hasLastRep && equalReportBody(rep, &o.lastRep) {
			o.enc.ReportSame(rep.Seq)
			if o.m.reportsSame != nil {
				o.m.reportsSame.Inc()
			}
		} else {
			o.enc.Report(rep)
			o.lastRep.APID = rep.APID
			o.lastRep.Seq = rep.Seq
			o.lastRep.Clients = append(o.lastRep.Clients[:0], rep.Clients...)
			o.lastRep.Hears = append(o.lastRep.Hears[:0], rep.Hears...)
			o.hasLastRep = true
		}
	}
	if asg != nil {
		msgs++
		o.enc.Assign(asg)
	}
	data, err := o.enc.finish()
	if err != nil {
		return err
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	if o.writeTimeout > 0 {
		_ = o.conn.SetWriteDeadline(time.Now().Add(o.writeTimeout))
	}
	if _, err := o.conn.Write(data); err != nil {
		return err
	}
	if o.m.txBytes != nil {
		o.m.txBytes.Add(uint64(len(data)))
		o.m.txBatches.Inc()
		o.m.txMsgs.Add(msgs)
	}
	return nil
}

// equalReportBody reports whether two reports carry identical measurement
// content (sequence numbers excluded — they differ by design between a
// report and its re-confirmation).
func equalReportBody(a, b *Report) bool {
	if a.APID != b.APID || len(a.Clients) != len(b.Clients) || len(a.Hears) != len(b.Hears) {
		return false
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			return false
		}
	}
	for i := range a.Hears {
		if a.Hears[i] != b.Hears[i] {
			return false
		}
	}
	return true
}

// countingReader counts bytes read from the underlying connection into a
// shared counter — one atomic add per buffered refill, not per message.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 && cr.c != nil {
		cr.c.Add(uint64(n))
	}
	return n, err
}
