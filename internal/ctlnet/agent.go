package ctlnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"acorn/internal/obs"
	"acorn/internal/spectrum"
)

// DefaultHeartbeatInterval is how often an agent pings the controller. It
// must stay well under the controller's PeerTimeout (a third or less) so a
// single delayed ping never looks like a dead peer.
const DefaultHeartbeatInterval = 15 * time.Second

// AgentOptions tunes an agent session's liveness machinery. The zero value
// picks the defaults; negative durations disable the corresponding feature.
type AgentOptions struct {
	// HeartbeatInterval is the ping cadence. Zero means
	// DefaultHeartbeatInterval; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// PeerTimeout is the read deadline between inbound messages. The
	// controller's pong replies refresh it, so it should be at least 3x
	// HeartbeatInterval. Zero means DefaultPeerTimeout; negative disables
	// read deadlines.
	PeerTimeout time.Duration
	// WriteTimeout bounds each outbound write. Zero means
	// DefaultWriteTimeout; negative disables write deadlines.
	WriteTimeout time.Duration
	// ReadBufBytes sizes the connection's buffered reader. Zero means
	// 64 KiB; fleet-scale harnesses shrink it so tens of thousands of
	// in-process agents stay affordable.
	ReadBufBytes int
	// Obs receives session metrics (heartbeat RTTs, wire bytes); nil
	// means obs.Default.
	Obs *obs.Registry
}

// Agent is the AP-side endpoint: it says hello, streams reports, and
// receives channel assignments. A background heartbeat keeps the session
// alive and lets both ends detect a dead peer within PeerTimeout.
//
// All writes after the hello flow through a per-connection outbox that
// batches pending reports and heartbeats into one frame per write.
type Agent struct {
	apID string
	conn net.Conn
	r    *bufio.Reader
	dec  *frameDecoder
	ob   *outbox
	opts AgentOptions

	rttHist *obs.Histogram

	mu      sync.Mutex
	seq     uint64 // last report sequence stamped
	current spectrum.Channel
	updates chan spectrum.Channel
	readErr error
	done    chan struct{}
	// Heartbeat RTT bookkeeping: the in-flight ping's seq and send time
	// (pings are strictly sequential, so one slot suffices).
	pingSeq uint64
	pingAt  time.Time
	lastRTT time.Duration
}

// Dial connects to the controller and performs the hello exchange with
// default options.
func Dial(addr string, hello Hello) (*Agent, error) {
	return DialOpts(addr, hello, AgentOptions{})
}

// DialOpts is Dial with explicit session options.
func DialOpts(addr string, hello Hello, opts AgentOptions) (*Agent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewAgentOpts(conn, hello, opts)
}

// NewAgent runs the agent protocol over an existing connection (tests use
// net.Pipe) with default options.
func NewAgent(conn net.Conn, hello Hello) (*Agent, error) {
	return NewAgentOpts(conn, hello, AgentOptions{})
}

// agentWire bundles the agent-side wire counters, bound once per registry.
type agentWire struct {
	out *outboxMetrics
	rx  *obs.Counter
}

var agentWireCache sync.Map // *obs.Registry → *agentWire

func agentWireMetrics(reg *obs.Registry) *agentWire {
	if w, ok := agentWireCache.Load(reg); ok {
		return w.(*agentWire)
	}
	w := &agentWire{
		out: &outboxMetrics{
			txBytes: reg.Counter("acorn_ctlnet_agent_tx_bytes_total",
				"bytes written to the controller by agents"),
			txBatches: reg.Counter("acorn_ctlnet_agent_tx_batches_total",
				"batched writes to the controller by agents"),
			txMsgs: reg.Counter("acorn_ctlnet_agent_tx_msgs_total",
				"messages written to the controller by agents"),
			reportsCoalesced: reg.Counter("acorn_ctlnet_agent_reports_coalesced_total",
				"reports replaced latest-wins in an agent outbox before hitting the wire"),
			reportsSame: reg.Counter("acorn_ctlnet_agent_reports_same_total",
				"unchanged reports collapsed to a seq-only report-same frame (v2)"),
		},
		rx: reg.Counter("acorn_ctlnet_agent_rx_bytes_total",
			"bytes read from the controller by agents"),
	}
	actual, _ := agentWireCache.LoadOrStore(reg, w)
	return actual.(*agentWire)
}

// NewAgentOpts runs the agent protocol over an existing connection. The
// hello is sent immediately; a background reader collects assignments and a
// background pinger keeps the session alive.
func NewAgentOpts(conn net.Conn, hello Hello, opts AgentOptions) (*Agent, error) {
	if hello.APID == "" {
		conn.Close()
		return nil, fmt.Errorf("ctlnet: agent requires an AP id")
	}
	reg := obs.Or(opts.Obs)
	wire := agentWireMetrics(reg)
	rbuf := opts.ReadBufBytes
	if rbuf <= 0 {
		rbuf = 64 << 10
	}
	a := &Agent{
		apID: hello.APID,
		conn: conn,
		r:    bufio.NewReaderSize(&countingReader{r: conn, c: wire.rx}, rbuf),
		dec:  &frameDecoder{},
		ob:   newOutbox(conn, timeout(opts.WriteTimeout, DefaultWriteTimeout), wire.out),
		opts: opts,
		rttHist: reg.Histogram("acorn_ctlnet_heartbeat_rtt_seconds",
			"agent-measured ping/pong round-trip time",
			[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		updates: make(chan spectrum.Channel, 1),
		done:    make(chan struct{}),
	}
	if err := writeOne(conn, a.ob.writeTimeout, func(e *frameEncoder) { e.Hello(&hello) }); err != nil {
		conn.Close()
		return nil, err
	}
	go a.readLoop()
	if hb := timeout(opts.HeartbeatInterval, DefaultHeartbeatInterval); hb > 0 {
		go a.pingLoop(hb)
	}
	return a, nil
}

// pingLoop enqueues a heartbeat every interval until the session ends. A
// dead outbox (failed write) tears the connection down so the read loop
// notices promptly.
func (a *Agent) pingLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-a.done:
			return
		case <-t.C:
			seq++
			a.mu.Lock()
			a.pingSeq = seq
			a.pingAt = time.Now()
			a.mu.Unlock()
			if err := a.ob.enqueuePing(seq); err != nil {
				a.conn.Close()
				return
			}
		}
	}
}

func (a *Agent) readLoop() {
	defer close(a.done)
	peerTimeout := timeout(a.opts.PeerTimeout, DefaultPeerTimeout)
	for {
		if peerTimeout > 0 {
			_ = a.conn.SetReadDeadline(time.Now().Add(peerTimeout))
		}
		env, err := readMsg(a.r, a.dec)
		if err != nil {
			a.mu.Lock()
			a.readErr = err
			a.mu.Unlock()
			return
		}
		switch env.Type {
		case TypeAssign:
			ch, err := channelFromAssign(env.Assign)
			if err != nil {
				a.mu.Lock()
				a.readErr = err
				a.mu.Unlock()
				return
			}
			a.mu.Lock()
			a.current = ch
			a.mu.Unlock()
			a.publish(ch)
		case TypeError:
			a.mu.Lock()
			a.readErr = fmt.Errorf("ctlnet: controller rejected: %s", env.Error.Reason)
			a.mu.Unlock()
			return
		case TypePong:
			// Match the pong against the in-flight ping to measure the
			// heartbeat round trip.
			var rtt time.Duration
			a.mu.Lock()
			if env.Pong != nil && env.Pong.Seq == a.pingSeq && !a.pingAt.IsZero() {
				rtt = time.Since(a.pingAt)
				a.lastRTT = rtt
				a.pingAt = time.Time{}
			}
			a.mu.Unlock()
			if rtt > 0 {
				a.rttHist.Observe(rtt.Seconds())
			}
		default:
			// Any future message type only matters for the read deadline
			// refresh above.
		}
	}
}

// publish coalesces assignments latest-wins into the capacity-1 updates
// channel: a slow consumer sees only the freshest assignment, and a fast
// one sees every value it can keep up with. Nothing is ever dropped in
// favor of an older value. Single producer (the read loop), so the
// blocking send after a drain cannot deadlock.
func (a *Agent) publish(ch spectrum.Channel) {
	select {
	case a.updates <- ch:
	default:
		select {
		case <-a.updates:
		default:
		}
		a.updates <- ch
	}
}

func channelFromAssign(as *Assign) (spectrum.Channel, error) {
	switch as.WidthMHz {
	case 20:
		return spectrum.NewChannel20(spectrum.ChannelID(as.Primary)), nil
	case 40:
		if as.Secondary == 0 || as.Secondary == as.Primary {
			return spectrum.Channel{}, fmt.Errorf("ctlnet: malformed 40 MHz assignment")
		}
		return spectrum.NewChannel40(spectrum.ChannelID(as.Primary), spectrum.ChannelID(as.Secondary)), nil
	default:
		return spectrum.Channel{}, fmt.Errorf("ctlnet: bad width %d", as.WidthMHz)
	}
}

// SendReport streams one measurement report. The APID field is filled in;
// so is Seq when zero (a caller-provided Seq — e.g. a reconnect replay —
// is preserved). Delivery is asynchronous through the outbox: a report
// still queued when the next one arrives is replaced latest-wins, and a
// write failure kills the session (the caller's reconnect machinery
// replays the last report).
func (a *Agent) SendReport(rep Report) error {
	rep.APID = a.apID
	a.mu.Lock()
	if rep.Seq == 0 {
		a.seq++
		rep.Seq = a.seq
	} else if rep.Seq > a.seq {
		a.seq = rep.Seq
	}
	a.mu.Unlock()
	return a.ob.enqueueReport(&rep)
}

// Updates returns the channel on which new assignments arrive. Only the
// freshest assignment is retained for slow consumers.
func (a *Agent) Updates() <-chan spectrum.Channel { return a.updates }

// Current returns the last assigned channel (zero before the first
// assignment).
func (a *Agent) Current() spectrum.Channel {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current
}

// LastRTT returns the most recent heartbeat round-trip time (zero before
// the first pong).
func (a *Agent) LastRTT() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastRTT
}

// Err returns the terminal read error, if the session ended.
func (a *Agent) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.readErr
}

// Done is closed when the session's read loop exits — on Close, peer
// disconnect, protocol error, or a missed-heartbeat timeout.
func (a *Agent) Done() <-chan struct{} { return a.done }

// Close tears the connection down and waits for the reader.
func (a *Agent) Close() error {
	err := a.conn.Close()
	<-a.done
	return err
}
