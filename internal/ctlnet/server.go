package ctlnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
	"acorn/internal/rf"
	"acorn/internal/spectrum"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// Default control-plane timeouts. PeerTimeout should stay comfortably above
// the agents' heartbeat interval (3x or more) so one delayed ping does not
// reap a healthy session.
const (
	DefaultHelloTimeout = 10 * time.Second
	DefaultPeerTimeout  = 90 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// Server is the central ACORN controller. It accepts agent connections,
// maintains the latest report per AP, and on Reallocate rebuilds a
// measurement-driven network view, runs Algorithm 2, and pushes the new
// assignments to every connected agent.
//
// Reports survive agent disconnects as a last-known-good view, so a
// flapping AP does not blind the allocator; ReportTTL controls how long
// such a view may feed Reallocate before it is quarantined.
type Server struct {
	// Seed drives each AP's starting channel for the search (seedChannel).
	Seed int64
	// Alloc tunes Algorithm 2 (worker count, period/switch bounds) for
	// every Reallocate. The zero value keeps the defaults.
	Alloc core.AllocOptions
	// Log, when non-nil, receives leveled diagnostic lines (connects and
	// disconnects at info, protocol trouble and quarantines at warn).
	Log *obs.Logger
	// Obs receives control-plane metrics; nil means obs.Default. Set it
	// before Serve — the metric handles bind lazily on first use.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per reallocation pass (see
	// trace.go for the stage catalog). Build it with NewServerTracer and
	// set it before Serve; nil costs nothing on the hot paths.
	Tracer *obs.Tracer
	// SLO, when non-nil, observes every streaming pass's receipt-to-push
	// latency so a windowed quantile can be held against a budget (and a
	// breach hook can capture a profile). Set before Serve.
	SLO *obs.SLO

	// HelloTimeout bounds how long an accepted connection may sit silent
	// before the hello arrives. Zero means DefaultHelloTimeout; negative
	// disables the deadline.
	HelloTimeout time.Duration
	// PeerTimeout is the read deadline applied between messages after the
	// hello; agents keep the session alive with ping heartbeats. Zero
	// means DefaultPeerTimeout; negative disables the deadline.
	PeerTimeout time.Duration
	// WriteTimeout bounds every outbound write so a stalled peer cannot
	// block pushes forever. Zero means DefaultWriteTimeout; negative
	// disables the deadline.
	WriteTimeout time.Duration
	// ReportTTL is the maximum age a report may reach and still count as
	// a fresh view in Reallocate. Older reports are quarantined: they are
	// still used as the last-known-good fallback (and logged), but if no
	// report at all is fresh, Reallocate refuses to run. Zero disables
	// aging.
	ReportTTL time.Duration
	// Stream, when Enabled, turns on event-driven reallocation: reports
	// mark their AP dirty and a consumer goroutine runs gated,
	// neighbourhood-restricted passes (see stream.go). Set before Serve.
	Stream StreamConfig
	// Shards sizes the inbound accept/IO sharding (see shard.go). The
	// zero value picks min(8, GOMAXPROCS) shards with default queues.
	// Set before Serve.
	Shards ShardConfig

	stream    streamState
	shardSet  []*shard
	shardStop chan struct{}

	// passMu serializes reallocation passes, so a full pass and a stream
	// pass never interleave their snapshot → install → push.
	passMu sync.Mutex

	mu      sync.Mutex
	agents  map[string]*agentConn // by AP ID
	reports map[string]storedReport
	hellos  map[string]Hello
	// hears is the reported hear-graph, maintained as reports change.
	hears  hearGraph
	assign map[string]spectrum.Channel
	// cells20 and cells40 count the assignment table's widths, kept in
	// step by install so the fleet-wide gauges never rescan the table.
	cells20, cells40 int
	lastRealloc      time.Time // last successful Reallocate

	metricsOnce sync.Once
	metrics     *serverMetrics

	stormOnce sync.Once
	stormLog  *obs.Logger

	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
}

// serverMetrics bundles the controller's metric handles, bound once
// against the server's registry so hot paths touch only atomics.
type serverMetrics struct {
	reg             *obs.Registry
	agentsConnected *obs.Gauge
	helloRejects    *obs.Counter
	sessionRejects  *obs.Counter
	heartbeats      *obs.Counter
	reportsTotal    *obs.Counter
	reportsStale    *obs.Counter
	reportsReplayed *obs.Counter
	reportsNoop     *obs.Counter
	quarantined     *obs.Counter
	reallocs        *obs.Counter
	reallocSkipped  *obs.Counter
	pushes          *obs.Counter
	pushErrors      *obs.Counter
	streamDirty     *obs.Gauge
	streamPasses    *obs.CounterVec
	streamFailures  *obs.Counter
	streamWatchdog  *obs.Counter
	streamVetoes    *obs.Counter
	passViewAPs     *obs.Histogram
	reallocSeconds  *obs.Histogram
	cells20         *obs.Gauge
	cells40         *obs.Gauge

	shardReports   *obs.CounterVec
	shardCoalesced *obs.CounterVec
	shardShed      *obs.CounterVec
	shardBatches   *obs.CounterVec

	rxBytes *obs.Counter
	pushWin *obs.Window
	outm    *outboxMetrics
}

// m returns the lazily bound metric handles.
func (s *Server) m() *serverMetrics {
	s.metricsOnce.Do(func() {
		reg := obs.Or(s.Obs)
		s.metrics = &serverMetrics{
			reg: reg,
			agentsConnected: reg.Gauge("acorn_ctlnet_agents_connected",
				"agent sessions currently established"),
			helloRejects: reg.Counter("acorn_ctlnet_hello_rejects_total",
				"connections rejected before or at hello"),
			sessionRejects: reg.Counter("acorn_ctlnet_session_rejects_total",
				"agent sessions dropped after hello for a malformed or unexpected message"),
			heartbeats: reg.Counter("acorn_ctlnet_heartbeats_total",
				"ping heartbeats received from agents"),
			reportsTotal: reg.Counter("acorn_ctlnet_reports_total",
				"measurement reports accepted"),
			reportsStale: reg.Counter("acorn_ctlnet_reports_stale_total",
				"reports dropped for an out-of-order sequence"),
			reportsReplayed: reg.Counter("acorn_ctlnet_reports_replayed_total",
				"reconnect replays accepted without refreshing the report's age"),
			reportsNoop: reg.Counter("acorn_ctlnet_reports_unchanged_total",
				"fresh reports whose measurements equal the stored report's"),
			quarantined: reg.Counter("acorn_ctlnet_reports_quarantined_total",
				"stale reports quarantined past the TTL at reallocation"),
			reallocs: reg.Counter("acorn_ctlnet_reallocations_total",
				"networked reallocations completed"),
			reallocSkipped: reg.Counter("acorn_ctlnet_reallocations_skipped_total",
				"reallocations refused (no agents or all reports stale)"),
			pushes: reg.Counter("acorn_ctlnet_assignment_pushes_total",
				"assignment pushes attempted"),
			pushErrors: reg.Counter("acorn_ctlnet_assignment_push_errors_total",
				"assignment pushes that failed"),
			streamDirty: reg.Gauge("acorn_ctlnet_stream_dirty_aps",
				"APs currently marked dirty awaiting a streaming pass"),
			streamPasses: reg.CounterVec("acorn_ctlnet_stream_passes_total",
				"streaming reallocation passes by scope", "scope"),
			streamFailures: reg.Counter("acorn_ctlnet_stream_pass_failures_total",
				"streaming passes that errored (dirty set requeued)"),
			streamWatchdog: reg.Counter("acorn_ctlnet_stream_watchdog_fires_total",
				"watchdog-forced full passes in stream mode"),
			streamVetoes: reg.Counter("acorn_ctlnet_stream_switch_vetoes_total",
				"proposed channel switches the anti-flap gate refused"),
			passViewAPs: reg.Histogram("acorn_ctlnet_pass_view_aps",
				"APs in the measurement view of one reallocation pass",
				[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
			reallocSeconds: reg.Histogram("acorn_ctlnet_reallocate_seconds",
				"wall time of one networked reallocation (view build + search + push)", nil),
			// The same gauges core.RecordAllocMetrics sets from a view; the
			// server overwrites them with the whole table after every pass.
			cells20: reg.Gauge("acorn_core_cells_20mhz", "cells on a 20 MHz channel"),
			cells40: reg.Gauge("acorn_core_cells_40mhz", "cells on a bonded 40 MHz channel"),
			shardReports: reg.CounterVec("acorn_ctlnet_shard_reports_total",
				"reports entering each inbound shard queue", "shard"),
			shardCoalesced: reg.CounterVec("acorn_ctlnet_shard_reports_coalesced_total",
				"reports coalesced latest-wins in a shard queue before apply", "shard"),
			shardShed: reg.CounterVec("acorn_ctlnet_shard_reports_shed_total",
				"reports shed oldest-first from a full shard queue", "shard"),
			shardBatches: reg.CounterVec("acorn_ctlnet_shard_batches_total",
				"report batches each shard pump applied to the controller", "shard"),
			rxBytes: reg.Counter("acorn_ctlnet_server_rx_bytes_total",
				"bytes read from agent connections"),
			pushWin: obs.NewWindow(15*time.Minute, 15, nil, nil),
		}
		s.metrics.outm = &outboxMetrics{
			txBytes: reg.Counter("acorn_ctlnet_server_tx_bytes_total",
				"bytes written to agent connections"),
			txBatches: reg.Counter("acorn_ctlnet_server_tx_batches_total",
				"batched writes to agent connections"),
			txMsgs: reg.Counter("acorn_ctlnet_server_tx_msgs_total",
				"messages written to agent connections"),
			pushDeduped: reg.Counter("acorn_ctlnet_pushes_deduped_total",
				"assignment pushes dropped because the connection already holds that assignment"),
			pushCoalesced: reg.Counter("acorn_ctlnet_pushes_coalesced_total",
				"queued assignment pushes replaced latest-wins before hitting the wire"),
			pushErrors: s.metrics.pushErrors,
			pushWin:    s.metrics.pushWin,
		}
		reg.GaugeFunc("acorn_ctlnet_last_reallocation_age_seconds",
			"seconds since the last successful reallocation (-1 before the first)",
			func() float64 {
				if at, ok := s.LastReallocation(); ok {
					return time.Since(at).Seconds()
				}
				return -1
			})
	})
	return s.metrics
}

// ConnectedAgents returns the AP IDs with a live session, sorted.
func (s *Server) ConnectedAgents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.agents))
	for id := range s.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// KnownAgents returns how many APs have ever said hello (their last-known-
// good views survive disconnects).
func (s *Server) KnownAgents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hellos)
}

// LastReallocation returns when the last successful Reallocate finished.
func (s *Server) LastReallocation() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRealloc, !s.lastRealloc.IsZero()
}

type agentConn struct {
	conn net.Conn
	ob   *outbox
}

// storedReport is a report plus the bookkeeping Reallocate needs to age it.
type storedReport struct {
	rep  Report
	recv time.Time
}

// NewServer returns an idle controller.
func NewServer(seed int64) *Server {
	return &Server{
		Seed:    seed,
		agents:  map[string]*agentConn{},
		reports: map[string]storedReport{},
		hellos:  map[string]Hello{},
		hears:   hearGraph{},
		assign:  map[string]spectrum.Channel{},
	}
}

// timeout resolves a configurable duration against its default: zero picks
// the default, negative disables (returns 0).
func timeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// log returns the configured logger, or a silent one.
func (s *Server) log() *obs.Logger {
	if s.Log != nil {
		return s.Log
	}
	return obs.Nop
}

// stormLogger is the rate-limited logger for per-message hot paths (stale
// report storms, failing streaming passes): at most a couple of lines per
// second, with the suppressed count reported on the next line through. One
// shared bucket per server — a storm is a storm regardless of which agent
// session observes it.
func (s *Server) stormLogger() *obs.Logger {
	s.stormOnce.Do(func() {
		s.stormLog = s.log().Limited(2, 5)
	})
	return s.stormLog
}

// Serve accepts connections on l until the listener is closed. It returns
// the listener's terminal error (net.ErrClosed after Close). Connections
// are spread over the configured accept/IO shards: shard 0's accept loop
// runs on the calling goroutine, the rest run concurrently against the
// same listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.startStream()
	shards := s.startShards()
	for _, sh := range shards[1:] {
		sh := sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.acceptLoop(l, sh)
		}()
	}
	return s.acceptLoop(l, shards[0])
}

// acceptLoop accepts connections for one shard until the listener fails.
func (s *Server) acceptLoop(l net.Listener, sh *shard) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn, sh)
		}()
	}
}

// Close shuts the listener and every agent connection, then waits for the
// handler goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]*agentConn, 0, len(s.agents))
	for _, a := range s.agents {
		conns = append(conns, a)
	}
	s.mu.Unlock()
	s.stopStream()
	s.stopShards()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, a := range conns {
		a.conn.Close()
	}
	s.wg.Wait()
	return err
}

// handle runs one agent session: hello, then a stream of reports and pings.
// Every accepted connection gets a read deadline before the first byte is
// read, so a mute client cannot pin this goroutine. Reports are handed to
// the session's shard queue (applied asynchronously by the shard pump);
// all outbound traffic goes through the per-connection outbox.
func (s *Server) handle(conn net.Conn, sh *shard) {
	defer conn.Close()
	if d := timeout(s.HelloTimeout, DefaultHelloTimeout); d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
	}
	m := s.m()
	r := bufio.NewReaderSize(&countingReader{r: conn, c: m.rxBytes}, 64<<10)
	dec := &frameDecoder{}
	env, err := readMsg(r, dec)
	if err != nil {
		m.helloRejects.Inc()
		if errors.Is(err, errMalformed) {
			s.reject(conn, err.Error())
		} else {
			s.reject(conn, "expected hello")
		}
		return
	}
	if env.Type != TypeHello {
		m.helloRejects.Inc()
		s.reject(conn, "expected hello")
		return
	}
	hello := *env.Hello
	if hello.APID == "" {
		m.helloRejects.Inc()
		s.reject(conn, "empty AP id")
		return
	}
	ob := newOutbox(conn, timeout(s.WriteTimeout, DefaultWriteTimeout), m.outm)
	ac := &agentConn{conn: conn, ob: ob}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.agents[hello.APID]; dup {
		s.mu.Unlock()
		m.helloRejects.Inc()
		s.reject(conn, "duplicate AP id")
		return
	}
	s.agents[hello.APID] = ac
	s.hellos[hello.APID] = hello
	s.mu.Unlock()
	m.agentsConnected.Inc()
	s.log().Info("agent connected", "ap", hello.APID, "addr", conn.RemoteAddr())

	// Only the live connection is forgotten on exit: the hello and last
	// report stay behind as the AP's last-known-good view.
	defer func() {
		s.mu.Lock()
		delete(s.agents, hello.APID)
		s.mu.Unlock()
		m.agentsConnected.Dec()
		s.log().Info("agent disconnected", "ap", hello.APID)
	}()

	// If an assignment already exists (reconnect), replay it.
	s.mu.Lock()
	if ch, ok := s.assign[hello.APID]; ok {
		s.mu.Unlock()
		s.push(ac, hello.APID, ch)
	} else {
		s.mu.Unlock()
	}

	// drop ends the session for peer misbehaviour after the hello.
	drop := func(reason string) {
		m.sessionRejects.Inc()
		ob.sendError(reason)
	}
	peerTimeout := timeout(s.PeerTimeout, DefaultPeerTimeout)
	for {
		if peerTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(peerTimeout))
		}
		env, err := readMsg(r, dec)
		if err != nil {
			if errors.Is(err, errMalformed) {
				drop(err.Error())
			}
			if !errors.Is(err, net.ErrClosed) {
				s.log().Warn("agent session error", "ap", hello.APID, "err", err)
			}
			return
		}
		switch env.Type {
		case TypePing:
			m.heartbeats.Inc()
			ob.enqueuePong(env.Ping.Seq)
		case TypeReport:
			if env.Report.APID != hello.APID {
				drop("report for foreign AP id")
				return
			}
			sh.offer(hello.APID, *env.Report, time.Now())
		default:
			drop("unexpected message")
			return
		}
	}
}

// reject answers a connection refused at its hello with an error frame.
func (s *Server) reject(conn net.Conn, reason string) {
	_ = writeOne(conn, timeout(s.WriteTimeout, DefaultWriteTimeout), func(e *frameEncoder) { e.Error(reason) })
}

// push enqueues an assignment to one agent's outbox. Delivery is
// asynchronous: the outbox batches it with any pending traffic, replaces
// it latest-wins if a newer assignment lands first, and drops it entirely
// when the connection already holds an identical assignment (state dedup).
// A write failure closes the connection, which the session's read loop
// notices — the same recovery path a synchronous failure took.
func (s *Server) push(ac *agentConn, apID string, ch spectrum.Channel) {
	m := s.m()
	a := Assign{
		APID:      apID,
		WidthMHz:  int(ch.Width),
		Primary:   int(ch.Primary),
		Secondary: int(ch.Secondary),
	}
	switch ac.ob.enqueueAssign(a, time.Now()) {
	case pushEnqueued:
		m.pushes.Inc()
	case pushDead:
		m.pushErrors.Inc()
		s.log().Warn("assignment push failed", "ap", apID, "err", ac.ob.Err())
	case pushDeduped:
		// Counted by the outbox; nothing to do.
	}
}

// ReportedAgents returns how many APs currently hold a stored report.
func (s *Server) ReportedAgents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

// Assignments returns a copy of the current assignment table.
func (s *Server) Assignments() map[string]spectrum.Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]spectrum.Channel, len(s.assign))
	for k, v := range s.assign {
		out[k] = v
	}
	return out
}

// PushLatencyQuantile returns the p-quantile of recent assignment push
// latency (enqueue to write completion) over the server's sliding window,
// 0 before any push.
func (s *Server) PushLatencyQuantile(p float64) time.Duration {
	w := s.m().pushWin
	if w.Count() == 0 {
		return 0
	}
	return time.Duration(w.Quantile(p) * float64(time.Second))
}

// Reallocate rebuilds the network view from the latest reports, runs
// Algorithm 2, stores and pushes the assignments, and returns them keyed by
// AP ID. APs that have said hello but not yet reported are treated as
// clientless.
//
// When ReportTTL is set, reports older than the TTL are quarantined: each
// one is logged and the AP's last-known-good view is still used, degrading
// gracefully through short silences. Only when every report is stale does
// Reallocate refuse to act, since the whole view would then be fiction.
//
// In stream mode this is the authoritative full pass: proposed switches
// still face the anti-flap gate's margin and rate limits (never more than
// burst + rate·W switches per AP in any window W), but not the K-streak
// hysteresis.
func (s *Server) Reallocate() (map[string]spectrum.Channel, error) {
	var span obs.SpanRef
	if s.Tracer != nil {
		span = s.Tracer.Begin("full", "", s.Tracer.Now())
		span.Mark(PassStageQueue) // a direct call has no queue wait
	}
	out, err := s.reallocate(nil, true, span)
	if err == nil {
		span.MarkEnd(PassStageFinal)
	}
	return out, err
}

// passInput is what one pass reads from the controller state: the hellos,
// reports and assignments of its scope, and the TTL verdicts of those
// reports.
type passInput struct {
	hellos      map[string]Hello
	reports     map[string]Report
	assign      map[string]spectrum.Channel
	fresh       int
	quarantined []string
}

// snapshot copies a pass's scope out of the controller state. A full pass
// (only nil) scopes every known AP. A restricted pass scopes the hear-graph
// components holding an AP of only: contention never crosses a component,
// so nothing outside them can change the search's ranks, and the view
// built from the scope equals the whole view restricted to it.
func (s *Server) snapshot(only map[string]bool) passInput {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	if only == nil {
		ids = make([]string, 0, len(s.hellos))
		for id := range s.hellos {
			ids = append(ids, id)
		}
	} else {
		ids = s.hears.closure(only, s.hellos)
	}
	in := passInput{
		hellos:  make(map[string]Hello, len(ids)),
		reports: make(map[string]Report, len(ids)),
		assign:  make(map[string]spectrum.Channel, len(ids)),
	}
	now := time.Now()
	for _, id := range ids {
		in.hellos[id] = s.hellos[id]
		if ch, ok := s.assign[id]; ok {
			in.assign[id] = ch
		}
		sr, ok := s.reports[id]
		if !ok {
			continue
		}
		in.reports[id] = sr.rep
		if s.ReportTTL > 0 && now.Sub(sr.recv) > s.ReportTTL {
			in.quarantined = append(in.quarantined, fmt.Sprintf("%s (age %v)", id, now.Sub(sr.recv).Round(time.Millisecond)))
		} else {
			in.fresh++
		}
	}
	return in
}

// install stores an AP's assignment and keeps the width counts in step.
// Callers hold s.mu.
func (s *Server) install(apID string, ch spectrum.Channel) {
	if old, ok := s.assign[apID]; ok {
		s.countCell(old, -1)
	}
	s.assign[apID] = ch
	s.countCell(ch, 1)
}

func (s *Server) countCell(ch spectrum.Channel, d int) {
	switch ch.Width {
	case spectrum.Width20:
		s.cells20 += d
	case spectrum.Width40:
		s.cells40 += d
	}
}

// seedChannel is an AP's starting channel for the search, drawn from a hash
// of the server seed and the AP ID: it depends neither on which APs share
// the pass nor on the order they said hello.
func seedChannel(seed int64, apID string, channels []spectrum.Channel) spectrum.Channel {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(apID))
	return channels[h.Sum64()%uint64(len(channels))]
}

// reallocate is the shared engine behind the periodic full pass (only nil)
// and the streaming neighbourhood pass (only = dirty APs plus their
// hear-graph neighbours; every other AP holds its channel). A restricted
// pass copies, builds, prices and pushes only its scope (see snapshot), so
// its cost follows the size of the change, not the fleet.
// In stream mode each proposed switch is replayed through the switch gate;
// vetoed switches keep the AP's previous assignment.
//
// pspan is the caller's pass span (a dead ref when tracing is off): the
// stage boundaries crossed here — view build, channel search, gating,
// pushes — are marked into it, and the search's rank-evaluation time is
// attributed. The caller Ends the span; an errored pass leaves it
// unfinished, which the tracer never exports.
func (s *Server) reallocate(only map[string]bool, bypassStreak bool, pspan obs.SpanRef) (map[string]spectrum.Channel, error) {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	m := s.m()
	span := m.reallocSeconds.Start()
	in := s.snapshot(only)
	if len(in.hellos) == 0 {
		m.reallocSkipped.Inc()
		return nil, fmt.Errorf("ctlnet: no agents known")
	}
	if len(in.quarantined) > 0 {
		sort.Strings(in.quarantined)
		m.quarantined.Add(uint64(len(in.quarantined)))
		s.log().Warn("quarantined stale reports, using last-known-good",
			"count", len(in.quarantined), "ttl", s.ReportTTL, "aps", in.quarantined)
	}
	if len(in.reports) > 0 && in.fresh == 0 {
		m.reallocSkipped.Inc()
		return nil, fmt.Errorf("ctlnet: refusing to reallocate: all %d reports stale (TTL %v)",
			len(in.reports), s.ReportTTL)
	}

	n, cfg := buildView(in.hellos, in.reports)
	m.passViewAPs.Observe(float64(len(n.APs)))
	// Seed the search from each AP's previous assignment when one exists
	// (incremental reallocation), else from its hashed seed channel.
	channels := n.Band.AllChannels()
	prevAssign := make(map[string]spectrum.Channel, len(in.assign))
	for _, ap := range n.APs {
		if ch, ok := in.assign[ap.ID]; ok && n.Band.Contains(ch) {
			cfg.Channels[ap.ID] = ch
			prevAssign[ap.ID] = ch
		} else {
			cfg.Channels[ap.ID] = seedChannel(s.Seed, ap.ID, channels)
		}
	}
	pspan.Mark(PassStageView)
	// A report lists only its AP's own clients, so the view holds no
	// measurement that could move a client: every client stays with the
	// AP that reported it, and there is no association stage to run.
	pspan.Mark(PassStageAssoc)
	est := core.NewEstimator(n)
	opts := s.Alloc
	opts.Only = only
	alloc, allocStats := core.AllocateChannels(n, cfg, est, opts)
	pspan.Mark(PassStageAlloc)
	pspan.Attr(PassAttrRankEval, time.Duration(allocStats.RankNanos), uint64(allocStats.Evals.RankEvals))

	out := s.gateAndInstall(prevAssign, only, bypassStreak, alloc.Channels, allocStats.History)
	conns := make(map[string]*agentConn, len(out))
	s.mu.Lock()
	for apID, ch := range out {
		s.install(apID, ch)
		if ac, ok := s.agents[apID]; ok {
			conns[apID] = ac
		}
	}
	cells20, cells40 := s.cells20, s.cells40
	s.lastRealloc = time.Now()
	s.mu.Unlock()
	pspan.Mark(PassStageGate)
	for apID, ac := range conns {
		ch := out[apID]
		// Restricted passes only push assignments that actually changed;
		// full passes push everything (reconnected agents may hold nothing).
		if only != nil {
			if prev, had := prevAssign[apID]; had && prev == ch {
				continue
			}
		}
		s.push(ac, apID, ch)
	}
	pspan.Mark(PassStagePush)
	m.reallocs.Inc()
	if only == nil {
		s.noteFullPass()
	}
	core.RecordAllocMetrics(m.reg, allocStats, alloc)
	// RecordAllocMetrics counted the view's cells; the width gauges
	// describe the whole assignment table.
	m.cells20.Set(float64(cells20))
	m.cells40.Set(float64(cells40))
	span.End()
	return out, nil
}

// gateAndInstall turns a search result into the assignment to store and
// push. Without a switch gate (stream mode off) the search result is taken
// wholesale. With one, previously assigned APs keep their channel unless
// the gate approves the switch — each proposal's relative gain is the
// greedy step's rank against the estimate just before it, mirroring the
// in-process StreamController — while an AP's first-ever assignment passes
// ungated (there is nothing to flap from). Never-assigned APs outside a
// restricted pass's eligible set get no assignment at all: their search
// channel is just the random seed, not a decision.
func (s *Server) gateAndInstall(prevAssign map[string]spectrum.Channel, only map[string]bool,
	bypassStreak bool, proposed map[string]spectrum.Channel, history []core.SwitchRecord) map[string]spectrum.Channel {
	s.stream.mu.Lock()
	gate := s.stream.gate
	s.stream.mu.Unlock()
	if gate == nil && s.Stream.Enabled {
		// Reallocate before Serve: bind the gate so hysteresis state is
		// shared once the consumer starts.
		s.stream.mu.Lock()
		if s.stream.gate == nil {
			s.stream.gate = core.NewSwitchGate(s.Stream.Gate, nil)
		}
		gate = s.stream.gate
		s.stream.mu.Unlock()
	}
	out := make(map[string]spectrum.Channel, len(proposed))
	if gate == nil {
		for apID, ch := range proposed {
			out[apID] = ch
		}
		return out
	}
	for apID, ch := range proposed {
		if prev, had := prevAssign[apID]; had {
			out[apID] = prev
		} else if only == nil || only[apID] {
			out[apID] = ch
		}
	}
	var vetoed, applied uint64
	for _, rec := range history {
		if _, had := prevAssign[rec.AP]; !had {
			continue
		}
		pre := rec.Estimate - rec.Rank
		rel := 0.0
		if pre > 0 {
			rel = rec.Rank / pre
		}
		if gate.Consider(rec.AP, rec.Channel, rel, bypassStreak) {
			if out[rec.AP] != rec.Channel {
				out[rec.AP] = rec.Channel
				applied++
			}
		} else {
			vetoed++
		}
	}
	s.stream.mu.Lock()
	s.stream.vetoed += vetoed
	s.stream.applied += applied
	s.stream.mu.Unlock()
	if vetoed > 0 {
		s.m().streamVetoes.Add(vetoed)
	}
	return out
}

// buildView converts reports into a wlan.Network whose link SNRs reproduce
// the measurements: each AP sits at its own far-apart anchor, each reported
// client is placed near its AP with an obstruction loss calibrated to the
// reported SNR, and the contention relation is the reported hear-graph
// (symmetrized).
func buildView(hellos map[string]Hello, reports map[string]Report) (*wlan.Network, *wlan.Config) {
	ids := make([]string, 0, len(hellos))
	for id := range hellos {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var aps []*wlan.AP
	anchor := map[string]rf.Point{}
	for i, id := range ids {
		p := rf.Point{X: float64(i) * 10000, Y: 0}
		anchor[id] = p
		aps = append(aps, &wlan.AP{ID: id, Pos: p, TxPower: units.DBm(hellos[id].TxPowerDBm)})
	}
	var clients []*wlan.Client
	cfg := wlan.NewConfig()
	for _, id := range ids {
		rep, ok := reports[id]
		if !ok {
			continue
		}
		for _, obs := range rep.Clients {
			c := &wlan.Client{
				ID:  rep.APID + "/" + obs.ClientID,
				Pos: rf.Point{X: anchor[id].X + 5, Y: 3},
			}
			clients = append(clients, c)
			cfg.SetAssoc(c.ID, id)
		}
	}
	n := wlan.NewNetwork(aps, clients)
	n.JitterDB = 0 // the view carries measurements, not physics
	// Calibrate each client's wall so its home-AP SNR matches the report.
	for _, id := range ids {
		rep, ok := reports[id]
		if !ok {
			continue
		}
		ap := n.AP(id)
		for _, obs := range rep.Clients {
			c := n.Client(id + "/" + obs.ClientID)
			base := float64(n.ClientSNR20(ap, c))
			wall := base - obs.SNR20dB
			if wall > 0 {
				c.ExtraLoss = map[string]units.DB{id: units.DB(wall)}
			}
		}
	}
	// Contention from the reported hear-graph, symmetrized.
	hears := map[string]map[string]bool{}
	for _, id := range ids {
		hears[id] = map[string]bool{}
	}
	for _, id := range ids {
		if rep, ok := reports[id]; ok {
			for _, other := range rep.Hears {
				if _, known := hears[other]; known {
					hears[id][other] = true
					hears[other][id] = true
				}
			}
		}
	}
	n.ContendOverride = func(a, b string) bool { return hears[a][b] }
	return n, cfg
}

// ListenAndServe is a convenience for cmd binaries.
func ListenAndServe(addr string, s *Server) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log().Info("acorn controller listening", "addr", l.Addr())
	return s.Serve(l)
}
