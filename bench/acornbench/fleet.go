package main

// The networked workloads: a real ctlnet.Server in stream mode and one real
// ReconnectingAgent per AP, talking over in-memory net.Pipe sessions — the
// transport fleetsim uses by default. Pipes keep the whole protocol path
// (framing, outboxes, shard queues, the stream consumer) while needing no
// sockets, so the numbers measure the control plane rather than the host's
// loopback stack. Every agent is the system's own agent layer under test;
// one bench goroutine per agent only watches its Updates() channel.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"acorn/internal/core"
	"acorn/internal/ctlnet"
	"acorn/internal/obs"
	"acorn/internal/rf"
	"acorn/internal/spectrum"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

const (
	// fleetCluster APs hear each other: the contention graph is a disjoint
	// union of cliques, as in fleetsim.
	fleetCluster = 4
	fleetClients = 2
	fleetTxPower = 20
	// opDeadline is the hard limit on one operation: a flip whose
	// assignment changed, or a kill, with no update by then has failed.
	opDeadline = 5 * time.Second
	setupLimit = 2 * time.Minute
	// reportPeriod is each AP's report cadence in fleet-steady.
	reportPeriod = 2 * time.Second
	// killRate is fleet-reconnect's transport kills per second.
	killRate = 100
)

// benchGate is the switch gate both stream controllers run with: the
// production rate limit (12/h, burst 3) stays on, but the goodput margin
// is disabled and one proposal suffices, because the default 2% margin is
// measured against whole-network goodput and no single-AP switch clears
// it at fleet scale (README, known defect 1).
var benchGate = core.GateOptions{Margin: -1, Streak: 1}

// pipeListener is a net.Listener whose Dial hands the server half of a
// fresh net.Pipe to Accept.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe:fleet" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial(ctx context.Context, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		err := net.ErrClosed
		client.Close()
		server.Close()
		return nil, err
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// probe is one timed operation on an AP: a flip (resolved when Updates()
// yields a channel other than prev) or a transport kill (resolved by an
// update on a session established after the kill).
type probe struct {
	fa       *fleetAP
	due      time.Time
	kill     bool
	prev     spectrum.Channel
	sessions int

	done    bool // guarded by fa.mu
	latency time.Duration
}

// fleetAP is one access point: its agent, its two possible reports, and
// what the bench has seen it apply.
type fleetAP struct {
	id   string
	ra   *ctlnet.ReconnectingAgent
	base ctlnet.Report // clients at 26–34 dB: 40 MHz territory
	low  ctlnet.Report // the same clients at 0–1 dB: 20 MHz territory
	rep  *ctlnet.Report

	mu      sync.Mutex
	conn    net.Conn         // live client half, for kills
	ch      spectrum.Channel // last channel Updates() yielded
	updated time.Time        // when it did
	probe   *probe
}

func newFleetAP(i, n int, rng *rand.Rand) *fleetAP {
	fa := &fleetAP{id: fmt.Sprintf("ap-%05d", i)}
	lo := i / fleetCluster * fleetCluster
	for p := lo; p < min(lo+fleetCluster, n); p++ {
		if p != i {
			fa.base.Hears = append(fa.base.Hears, fmt.Sprintf("ap-%05d", p))
		}
	}
	fa.low.Hears = fa.base.Hears
	for c := 0; c < fleetClients; c++ {
		id := fmt.Sprintf("c%d", c)
		fa.base.Clients = append(fa.base.Clients, ctlnet.ClientObs{ClientID: id, SNR20dB: 26 + 8*rng.Float64()})
		fa.low.Clients = append(fa.low.Clients, ctlnet.ClientObs{ClientID: id, SNR20dB: rng.Float64()})
	}
	fa.rep = &fa.base
	return fa
}

func (fa *fleetAP) track(c net.Conn) {
	fa.mu.Lock()
	fa.conn = c
	fa.mu.Unlock()
}

// kill closes the agent's live transport; false when it had none.
func (fa *fleetAP) kill() bool {
	fa.mu.Lock()
	c := fa.conn
	fa.conn = nil
	fa.mu.Unlock()
	if c == nil {
		return false
	}
	c.Close()
	return true
}

// open starts timing an operation on this AP from its due time.
func (fa *fleetAP) open(due time.Time, kill bool) *probe {
	p := &probe{fa: fa, due: due, kill: kill}
	if kill {
		p.sessions = fa.ra.Sessions()
	}
	fa.mu.Lock()
	p.prev = fa.ch
	fa.probe = p
	fa.mu.Unlock()
	return p
}

// result reads a probe's outcome.
func (p *probe) result() (done bool, latency time.Duration) {
	p.fa.mu.Lock()
	defer p.fa.mu.Unlock()
	return p.done, p.latency
}

// watch records every assignment the agent yields until stop closes.
func (fa *fleetAP) watch(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case ch := <-fa.ra.Updates():
			now := time.Now()
			fa.mu.Lock()
			fa.ch, fa.updated = ch, now
			if p := fa.probe; p != nil && !p.done &&
				((p.kill && fa.ra.Sessions() > p.sessions) || (!p.kill && ch != p.prev)) {
				p.done, p.latency = true, now.Sub(p.due)
			}
			fa.mu.Unlock()
		}
	}
}

// fleet is a running server plus its agents.
type fleet struct {
	srv       *ctlnet.Server
	reg       *obs.Registry
	aps       []*fleetAP
	stop      chan struct{}
	cancel    context.CancelFunc
	watchers  sync.WaitGroup
	serveDone chan struct{}
}

// bootFleet starts a stream-mode server with production defaults (apart
// from benchGate) and cfg.APs agents, and waits until every agent holds
// the controller's stored assignment, reached through stream passes alone
// (Reallocate is never called: it races the stream consumer, README known
// defect 2). It returns the fleet and its set-up time: first dial to the
// last agent receiving its final assignment.
func bootFleet(cfg config, backoff ctlnet.Backoff, tracer *obs.Tracer) (*fleet, time.Duration, error) {
	reg := obs.NewRegistry()
	srv := ctlnet.NewServer(cfg.Seed)
	srv.Obs = reg
	srv.Tracer = tracer
	srv.Stream = ctlnet.StreamConfig{Enabled: true, Gate: benchGate}
	ln := newPipeListener()
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{srv: srv, reg: reg, stop: make(chan struct{}), cancel: cancel, serveDone: make(chan struct{})}
	go func() {
		defer close(f.serveDone)
		_ = srv.Serve(ln)
	}()

	rng := rand.New(rand.NewSource(cfg.Seed))
	f.aps = make([]*fleetAP, cfg.APs)
	for i := range f.aps {
		f.aps[i] = newFleetAP(i, cfg.APs, rng)
	}
	t0 := time.Now()
	for i, fa := range f.aps {
		ra, err := ctlnet.NewReconnectingAgent(ctx, "fleet", ctlnet.Hello{APID: fa.id, TxPowerDBm: fleetTxPower},
			ctlnet.ReconnectOptions{
				Backoff: backoff,
				Agent:   ctlnet.AgentOptions{Obs: reg},
				Dial: func(ctx context.Context, addr string) (net.Conn, error) {
					c, err := ln.Dial(ctx, addr)
					if err == nil {
						fa.track(c)
					}
					return c, err
				},
				Obs:  reg,
				Seed: int64(i + 1),
			})
		if err != nil {
			f.close()
			return nil, 0, err
		}
		fa.ra = ra
		f.watchers.Add(1)
		go func() {
			defer f.watchers.Done()
			fa.watch(f.stop)
		}()
		if err := ra.SendReport(*fa.rep); err != nil {
			f.close()
			return nil, 0, err
		}
	}

	deadline := t0.Add(setupLimit)
	for {
		if err := f.waitConverged(deadline); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if err := f.quiesce(deadline); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if f.converged() {
			break
		}
	}
	var end time.Time
	for _, fa := range f.aps {
		fa.mu.Lock()
		if fa.updated.After(end) {
			end = fa.updated
		}
		fa.mu.Unlock()
	}
	return f, end.Sub(t0), nil
}

// close stops the watchers, the agents and the server, and waits for all
// of them.
func (f *fleet) close() {
	close(f.stop)
	f.watchers.Wait()
	f.cancel()
	var wg sync.WaitGroup
	for _, fa := range f.aps {
		if fa.ra == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fa.ra.Close()
		}()
	}
	wg.Wait()
	f.srv.Close()
	<-f.serveDone
}

// diverged counts agents whose last applied channel is not the
// controller's stored assignment (or that have none).
func (f *fleet) diverged() int {
	want := f.srv.Assignments()
	n := 0
	for _, fa := range f.aps {
		w := want[fa.id]
		fa.mu.Lock()
		if w.IsZero() || fa.ch != w {
			n++
		}
		fa.mu.Unlock()
	}
	return n
}

func (f *fleet) converged() bool {
	return f.srv.ReportedAgents() == len(f.aps) && f.diverged() == 0
}

func (f *fleet) waitConverged(deadline time.Time) error {
	for !f.converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d/%d agents hold a stale assignment", f.diverged(), len(f.aps))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// quiesce waits until the stream consumer is idle: no dirty AP, no new
// mark and no pass finishing for max(200 ms, 1.5 × the mean pass so far).
// A pass in flight has already drained the dirty set, so the window must
// outlast one; every pass re-solves the whole view, so the mean bounds it.
func (f *fleet) quiesce(deadline time.Time) error {
	var last ctlnet.ServerStreamStats
	since, window := time.Now(), f.quietWindow()
	for first := true; ; first = false {
		st := f.srv.StreamStats()
		moved := st.Marks != last.Marks || st.Passes != last.Passes ||
			st.FullPasses != last.FullPasses || st.Failed != last.Failed
		if first || moved || st.DirtyDepth > 0 {
			since, window = time.Now(), f.quietWindow()
		} else if time.Since(since) >= window {
			return nil
		}
		last = st
		if time.Now().After(deadline) {
			return fmt.Errorf("stream never went idle (%d dirty APs)", st.DirtyDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (f *fleet) quietWindow() time.Duration {
	s := snapshot(f.reg)
	mean := time.Duration(ratio(s["acorn_ctlnet_reallocate_seconds_sum"], s["acorn_ctlnet_reallocate_seconds_count"]) * float64(time.Second))
	return max(200*time.Millisecond, mean*3/2)
}

// goodput evaluates the controller's assignment table on the network its
// reports describe, built exactly as the server's view is: APs 10 km
// apart, each client next to its AP behind a wall calibrated to the
// reported SNR, the reported hear-graph as contention, no jitter. f.aps is
// already in the ID order buildView sorts into.
func (f *fleet) goodput() float64 {
	aps := f.aps
	var wAPs []*wlan.AP
	var clients []*wlan.Client
	cfg := wlan.NewConfig()
	for i, fa := range aps {
		pos := rf.Point{X: float64(i) * 10000}
		wAPs = append(wAPs, &wlan.AP{ID: fa.id, Pos: pos, TxPower: fleetTxPower})
		for _, c := range fa.rep.Clients {
			cl := &wlan.Client{ID: fa.id + "/" + c.ClientID, Pos: rf.Point{X: pos.X + 5, Y: 3}}
			clients = append(clients, cl)
			cfg.SetAssoc(cl.ID, fa.id)
		}
	}
	n := wlan.NewNetwork(wAPs, clients)
	n.JitterDB = 0
	hears := map[string]map[string]bool{}
	for _, fa := range aps {
		ap := n.AP(fa.id)
		for _, c := range fa.rep.Clients {
			cl := n.Client(fa.id + "/" + c.ClientID)
			if wall := float64(n.ClientSNR20(ap, cl)) - c.SNR20dB; wall > 0 {
				cl.ExtraLoss = map[string]units.DB{fa.id: units.DB(wall)}
			}
		}
		for _, o := range fa.rep.Hears {
			for _, pair := range [][2]string{{fa.id, o}, {o, fa.id}} {
				if hears[pair[0]] == nil {
					hears[pair[0]] = map[string]bool{}
				}
				hears[pair[0]][pair[1]] = true
			}
		}
	}
	n.ContendOverride = func(a, b string) bool { return hears[a][b] }
	cfg.Channels = f.srv.Assignments()
	return n.Evaluate(cfg).TotalUDP
}

// setupFleet times one fleet set-up.
func setupFleet(cfg config) (time.Duration, error) {
	f, d, err := bootFleet(cfg, fleetBackoff(cfg.Workload), nil)
	if err == nil {
		f.close()
	}
	return d, err
}

// fleetBackoff is the agents' retry policy. fleet-reconnect retries after
// a fixed 1 ms: a shorter retry races the server's teardown of the killed
// session and is rejected as a duplicate AP, and how often it loses that
// race swings CPU, GC and tail latency from run to run (README, known
// defect 4). fleet-steady never drops a session and keeps the default.
func fleetBackoff(workload string) ctlnet.Backoff {
	if workload == "fleet-reconnect" {
		return ctlnet.Backoff{Min: time.Millisecond, Max: time.Millisecond, Jitter: -1}
	}
	return ctlnet.Backoff{}
}

// fleetRun holds what both fleet workloads measure around their phase.
type fleetRun struct {
	f      *fleet
	before regSnap
	ss     ctlnet.ServerStreamStats
	lates  []time.Duration
	probes []*probe
}

// issue sleeps until due and records how late the driver ran.
func (fr *fleetRun) issue(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	fr.lates = append(fr.lates, time.Since(due))
}

// finish waits out the open probes and the stream, runs the fleet's
// correctness gates, and records the metrics both fleet workloads share.
// It returns the latency samples of the probes that resolved in time.
func (fr *fleetRun) finish(r *result, phaseStart time.Time, traced bool) ([]time.Duration, error) {
	f := fr.f
	for {
		open := false
		for _, p := range fr.probes {
			if done, _ := p.result(); !done && time.Since(p.due) < opDeadline {
				open = true
				break
			}
		}
		if !open {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := f.quiesce(time.Now().Add(setupLimit)); err != nil {
		return nil, err
	}
	_ = f.waitConverged(time.Now().Add(10 * time.Second)) // diverged() below counts any agent still behind
	after := snapshot(f.reg)
	ss := f.srv.StreamStats()

	want := f.srv.Assignments()
	var samples []time.Duration
	kept, late := 0, 0
	for _, p := range fr.probes {
		done, lat := p.result()
		switch {
		case done && lat <= opDeadline:
			samples = append(samples, lat)
		case !p.kill && want[p.fa.id] == p.prev:
			kept++
		default:
			late++
		}
	}
	diverged := f.diverged()
	lost := len(f.aps) - f.srv.KnownAgents()
	d := func(name string) float64 { return delta(fr.before, after, name) }
	shed := int(d("acorn_ctlnet_shard_reports_shed_total"))
	pushErrs := int(d("acorn_ctlnet_assignment_push_errors_total"))
	r.Failed += late + diverged + lost + shed + pushErrs

	if diverged > 0 {
		r.gate("%d agents do not hold their stored assignment", diverged)
	}
	if lost > 0 {
		r.gate("controller knows %d of %d APs", f.srv.KnownAgents(), len(f.aps))
	}
	checkSwitchRate(r, f.srv.GateSwitchTimes())

	r.set("goodput_mbps", f.goodput(), "Mbit/s")
	r.ms("bench.gen_late_p99_ms", quantileDur(fr.lates, 0.99))
	r.ms("bench.gen_late_max_ms", maxDur(fr.lates))

	shardReports := d("acorn_ctlnet_shard_reports_total")
	pushes := d("acorn_ctlnet_assignment_pushes_total")
	r.set("ctlnet.wire.rx_bytes_per_report", ratio(d("acorn_ctlnet_server_rx_bytes_total"), shardReports), "B")
	r.set("ctlnet.wire.tx_bytes_per_push", ratio(d("acorn_ctlnet_server_tx_bytes_total"), pushes), "B")
	r.set("ctlnet.wire.report_same_frac", ratio(d("acorn_ctlnet_agent_reports_same_total"), shardReports), "ratio")
	r.set("ctlnet.shard.reports", shardReports, "count")
	r.set("ctlnet.shard.coalesced", d("acorn_ctlnet_shard_reports_coalesced_total"), "count")
	r.set("ctlnet.shard.shed", float64(shed), "count")
	r.set("ctlnet.shard.reports_per_batch", ratio(shardReports, d("acorn_ctlnet_shard_batches_total")), "count")
	passes := float64(ss.Passes + ss.FullPasses - fr.ss.Passes - fr.ss.FullPasses)
	r.set("ctlnet.stream.marks", float64(ss.Marks-fr.ss.Marks), "count")
	r.set("ctlnet.stream.passes", passes, "count")
	r.set("ctlnet.stream.marks_per_pass", ratio(float64(ss.Marks-fr.ss.Marks), passes), "count")
	r.set("ctlnet.stream.failed_passes", float64(ss.Failed-fr.ss.Failed), "count")
	setGateMetrics(r, fr.ss.Gate, ss.Gate)
	r.set("ctlnet.outbox.pushes", pushes, "count")
	r.set("ctlnet.outbox.deduped", d("acorn_ctlnet_pushes_deduped_total"), "count")
	r.set("ctlnet.outbox.coalesced", d("acorn_ctlnet_pushes_coalesced_total"), "count")
	r.set("ctlnet.outbox.errors", float64(pushErrs), "count")
	r.ms("ctlnet.outbox.push_p50_ms", f.srv.PushLatencyQuantile(0.50))
	r.ms("ctlnet.outbox.push_p99_ms", f.srv.PushLatencyQuantile(0.99))
	r.set("ctlnet.agent.sessions", d("acorn_ctlnet_sessions_total"), "count")
	r.set("ctlnet.agent.dial_attempts", d("acorn_ctlnet_dial_attempts_total"), "count")
	r.set("ctlnet.agent.dial_failures", d("acorn_ctlnet_dial_failures_total"), "count")
	r.set("ctlnet.agent.session_drops", d("acorn_ctlnet_session_drops_total"), "count")
	r.set("ctlnet.agent.probe_kept_frac", ratio(float64(kept), float64(len(fr.probes))), "ratio")
	setAllocMetrics(r, fr.before, after)
	if traced {
		setPassMetrics(r, summarizeSpans(r, f.srv.Tracer, phaseStart))
	}
	r.idle = []string{"core.stream.", "core.stage.", "core.attr."}
	return samples, nil
}

// setPassMetrics records the traced stream passes' mean stage split.
func setPassMetrics(r *result, st spanStats) {
	for _, stage := range ctlnet.ServerTraceStages {
		r.set("ctlnet.pass."+stage+"_ms", st.stages[stage], "ms")
	}
	r.ms("ctlnet.pass.total_ms_p50", quantileDur(st.totals, 0.50))
	r.ms("ctlnet.pass.total_ms_p99", quantileDur(st.totals, 0.99))
	r.set("ctlnet.pass.rank_eval_ms", st.attrs["rank_eval"], "ms")
	r.set("ctlnet.pass.rank_evals", st.counts["rank_eval"], "count")
	var aps float64
	for _, sv := range st.spans {
		var n int
		if _, err := fmt.Sscanf(sv.Key, "aps=%d", &n); err == nil {
			aps += float64(n)
		}
	}
	r.set("ctlnet.pass.aps", ratio(aps, float64(len(st.spans))), "count")
}

// setGateMetrics records what the switch gate decided during the phase.
func setGateMetrics(r *result, before, after core.GateStats) {
	r.set("core.gate.proposals", float64(after.Proposals-before.Proposals), "count")
	r.set("core.gate.approved", float64(after.Approved-before.Approved), "count")
	r.set("core.gate.margin_vetoes", float64(after.MarginVetoes-before.MarginVetoes), "count")
	r.set("core.gate.streak_vetoes", float64(after.StreakVetoes-before.StreakVetoes), "count")
	r.set("core.gate.rate_vetoes", float64(after.RateVetoes-before.RateVetoes), "count")
	r.set("core.gate.max_switches_per_ap", float64(after.MaxSwitchesPerAP), "count")
}

// checkSwitchRate gates the anti-flap invariant over every window of every
// AP's committed switches: at most burst + rate·W switches in any window W.
func checkSwitchRate(r *result, times map[string][]time.Time) {
	burst, rate := float64(core.DefaultGateBurst), core.DefaultGateRatePerHour
	for ap, ts := range times {
		for i := range ts {
			for j := i; j < len(ts); j++ {
				w := ts[j].Sub(ts[i]).Hours()
				if n := float64(j - i + 1); n > burst+rate*w+1e-9 {
					r.gate("AP %s switched %v times in %v (bound %.2f)", ap, n, ts[j].Sub(ts[i]), burst+rate*w)
					return
				}
			}
		}
	}
}

// bootTraced boots the workload's fleet, with a server tracer when cfg
// asks for one.
func bootTraced(cfg config) (*fleet, time.Duration, error) {
	var tracer *obs.Tracer
	if cfg.Traced {
		tracer = ctlnet.NewServerTracer(1<<16, 1, nil)
	}
	return bootFleet(cfg, fleetBackoff(cfg.Workload), tracer)
}

// runFleetSteady offers one report per AP every reportPeriod, open loop.
// 1.1 reports per AP are flips spread evenly over the phase: the next AP
// of a seeded permutation drops its clients to 0–1 dB, which should move
// it from 40 to 20 MHz; once every AP has flipped, the first ones flip
// back. The rest are unchanged re-sends, round-robin. A flip's latency
// runs from its due time to the agent's Updates() yielding a new channel.
func runFleetSteady(cfg config) (*result, error) {
	r := newResult(cfg)
	f, setup, err := bootTraced(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	n := len(f.aps)
	phase := cfg.phase()
	total := max(int(float64(n)*phase.Seconds()/reportPeriod.Seconds()), 1)
	flips := min(n+n/10, total)
	perm := rng.Perm(n)
	fr := &fleetRun{f: f, before: snapshot(f.reg), ss: f.srv.StreamStats()}
	pc := startPhase()
	next := 0
	for k := 0; k < total; k++ {
		due := pc.start.Add(phase * time.Duration(k) / time.Duration(total))
		fr.issue(due)
		var fa *fleetAP
		if j := k * flips / total; (k+1)*flips/total > j {
			fa = f.aps[perm[j%n]]
			fa.rep = &fa.low
			if j >= n {
				fa.rep = &fa.base
			}
			fr.probes = append(fr.probes, fa.open(due, false))
		} else {
			fa = f.aps[next%n]
			next++
		}
		if err := fa.ra.SendReport(*fa.rep); err != nil {
			r.Failed++
		}
	}
	time.Sleep(time.Until(pc.start.Add(phase)))
	applied := delta(fr.before, snapshot(f.reg), "acorn_ctlnet_reports_total")
	r.set("ops_per_s", applied/time.Since(pc.start).Seconds(), "1/s")
	pc.stop(r, total)
	r.Attempted = total

	samples, err := fr.finish(r, pc.start, cfg.Traced)
	if err != nil {
		return nil, err
	}
	r.setEndToEnd(samples, setup)
	return r, nil
}

// runFleetReconnect kills killRate transports per second, open loop,
// cycling a seeded permutation of the APs, with no measurement traffic: a
// rolling upgrade. Agents retry after fleetBackoff and replay their last
// report; a kill's latency runs from its due time to Updates() yielding
// the assignment on the new session. The agent process itself survives,
// because a restarted agent's reports are dropped until its sequence
// catches up (README, known defect 3).
func runFleetReconnect(cfg config) (*result, error) {
	r := newResult(cfg)
	f, setup, err := bootTraced(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	n := len(f.aps)
	phase := cfg.phase()
	kills := max(killRate*cfg.Seconds, 1)
	perm := rng.Perm(n)
	fr := &fleetRun{f: f, before: snapshot(f.reg), ss: f.srv.StreamStats()}
	pc := startPhase()
	for k := 0; k < kills; k++ {
		due := pc.start.Add(phase * time.Duration(k) / time.Duration(kills))
		fr.issue(due)
		fa := f.aps[perm[k%n]]
		if p := fa.open(due, true); fa.kill() {
			fr.probes = append(fr.probes, p)
		} else {
			r.Failed++ // the previous kill's reconnect had not finished
		}
	}
	time.Sleep(time.Until(pc.start.Add(phase)))
	pc.stop(r, kills)
	r.Attempted = kills

	samples, err := fr.finish(r, pc.start, cfg.Traced)
	if err != nil {
		return nil, err
	}
	var last time.Time
	for _, p := range fr.probes {
		if done, lat := p.result(); done && lat <= opDeadline && p.due.Add(lat).After(last) {
			last = p.due.Add(lat)
		}
	}
	r.set("ops_per_s", float64(len(samples))/last.Sub(pc.start).Seconds(), "1/s")
	r.setEndToEnd(samples, setup)
	return r, nil
}
