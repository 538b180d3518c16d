package fleetsim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"acorn/internal/ctlnet"
	"acorn/internal/obs"
	"acorn/internal/spectrum"
)

// Options configures one fleet run. The zero value is a small sane fleet;
// every field has a default.
type Options struct {
	// Agents is the fleet size. Zero means 200.
	Agents int
	// ClientsPerAP is how many measured clients each AP reports. Zero
	// means 2.
	ClientsPerAP int
	// ClusterSize groups agents into mutual-hearing contention clusters
	// of this size (the interference graph is a disjoint union of
	// cliques). Zero means 4.
	ClusterSize int
	// Shards is the server's accept/IO shard count. Zero means 4.
	Shards int
	// QueueCap bounds each shard's report queue. Zero sizes it to the
	// fleet (Agents + slack) so a full-fleet report burst sheds nothing.
	QueueCap int
	// Transport is "pipe" (in-memory, default — 10k+ agents need no file
	// descriptors) or "tcp" (loopback, end-to-end).
	Transport string
	// ReportInterval is each agent's steady-state report cadence,
	// jittered ±50%. Zero means 2s; negative disables steady reporting.
	ReportInterval time.Duration
	// Heartbeat is the agent ping cadence. Zero means 5s; negative
	// disables heartbeats.
	Heartbeat time.Duration
	// Duration is the steady-state measurement phase. Zero means 3s.
	Duration time.Duration
	// ChurnFrac is the fraction of agents whose live connection is killed
	// once during the steady phase (they reconnect with backoff).
	ChurnFrac float64
	// StormFrac is the fraction of agents that fire one burst of
	// StormBurst back-to-back reports during the steady phase.
	StormFrac float64
	// StormBurst is the burst length. Zero means 20.
	StormBurst int
	// Seed drives topology, report jitter, churn and storm schedules.
	// Zero means 42.
	Seed int64
	// Log, when non-nil, receives fleet lifecycle lines.
	Log *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.Agents <= 0 {
		o.Agents = 200
	}
	if o.ClientsPerAP <= 0 {
		o.ClientsPerAP = 2
	}
	if o.ClusterSize <= 0 {
		o.ClusterSize = 4
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.QueueCap <= 0 {
		o.QueueCap = o.Agents + 1024
	}
	if o.Transport == "" {
		o.Transport = "pipe"
	}
	if o.ReportInterval == 0 {
		o.ReportInterval = 2 * time.Second
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 5 * time.Second
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.StormBurst <= 0 {
		o.StormBurst = 20
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Result is what one fleet run measured.
type Result struct {
	Agents int `json:"agents"`

	// Converged is true when, at the end of the run, every agent holds
	// exactly the controller's stored assignment for its AP.
	Converged bool `json:"converged"`
	// ConvergeTime is first Reallocate start → last agent holding its
	// assignment.
	ConvergeTime time.Duration `json:"converge_time"`
	// SteadyDuration is the measured churn/storm phase length.
	SteadyDuration time.Duration `json:"steady_duration"`

	// ReportsApplied counts reports installed into the controller view;
	// ReportsPerSec is the sustained apply rate over the steady phase.
	ReportsApplied uint64  `json:"reports_applied"`
	ReportsPerSec  float64 `json:"reports_per_sec"`
	// ReportsSame counts unchanged reports the agents collapsed to
	// seq-only report-same frames.
	ReportsSame uint64 `json:"reports_same"`
	// ShardCoalesced/ShardShed count reports absorbed latest-wins in
	// shard queues and reports shed from a full queue (zero in a
	// well-sized run).
	ShardCoalesced uint64 `json:"shard_coalesced"`
	ShardShed      uint64 `json:"shard_shed"`

	PushesEnqueued uint64 `json:"pushes_enqueued"`
	PushesDeduped  uint64 `json:"pushes_deduped"`
	PushErrors     uint64 `json:"push_errors"`
	Heartbeats     uint64 `json:"heartbeats"`

	// PushP50/PushP99 are quantiles of assignment push latency (outbox
	// enqueue → write completed) over the server's sliding window.
	PushP50 time.Duration `json:"push_p50"`
	PushP99 time.Duration `json:"push_p99"`

	// BytesOnWire is all traffic as seen from the server (tx + rx).
	BytesOnWire uint64 `json:"bytes_on_wire"`

	// Resets counts connections the churn schedule killed; Sessions is
	// the total sessions established fleet-wide (≥ Agents + Resets when
	// every churned agent reconnected).
	Resets   uint64 `json:"resets"`
	Sessions uint64 `json:"sessions"`
	// MembershipLost is how many APs the controller forgot (always 0:
	// membership survives disconnects by design).
	MembershipLost int `json:"membership_lost"`

	// ReallocStages breaks the final full reallocation pass into traced
	// stage nanoseconds (view/assoc/alloc/gate/push), from the PR-8
	// tracer.
	ReallocStages map[string]int64 `json:"realloc_stages,omitempty"`
}

// fleetAgent is one simulated AP: its reconnecting agent plus the state
// the steady-phase driver needs.
type fleetAgent struct {
	idx int
	id  string
	ra  *ctlnet.ReconnectingAgent
	rep ctlnet.Report // this AP's (fixed) measurement

	mu   sync.Mutex
	conn net.Conn // live transport conn, for churn kills
}

func (fa *fleetAgent) track(c net.Conn) {
	fa.mu.Lock()
	fa.conn = c
	fa.mu.Unlock()
}

// kill closes the agent's current transport connection (a churn event).
func (fa *fleetAgent) kill() bool {
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

// Run boots the fleet, converges it, drives the steady churn/storm phase,
// re-converges, and returns the measurements. It tears everything down
// before returning.
func Run(ctx context.Context, o Options) (*Result, error) {
	o = o.withDefaults()
	log := o.Log
	if log == nil {
		log = obs.Nop
	}
	reg := obs.NewRegistry()
	tracer := ctlnet.NewServerTracer(64, 1, nil)
	srv := ctlnet.NewServer(o.Seed)
	srv.Obs = reg
	srv.Tracer = tracer
	srv.Shards = ctlnet.ShardConfig{N: o.Shards, QueueCap: o.QueueCap}

	var ln net.Listener
	var baseDial func(ctx context.Context, addr string) (net.Conn, error)
	addr := "fleet"
	switch o.Transport {
	case "pipe":
		ml := newMemListener()
		ln = ml
		baseDial = ml.Dial
	case "tcp":
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = ln.Addr().String()
		var d net.Dialer
		baseDial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	default:
		return nil, fmt.Errorf("fleetsim: unknown transport %q", o.Transport)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	rng := rand.New(rand.NewSource(o.Seed))
	agents := make([]*fleetAgent, o.Agents)
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	closeFleet := func() {
		acancel()
		var wg sync.WaitGroup
		for _, fa := range agents {
			if fa == nil || fa.ra == nil {
				continue
			}
			wg.Add(1)
			go func(fa *fleetAgent) {
				defer wg.Done()
				fa.ra.Close()
			}(fa)
		}
		wg.Wait()
	}
	defer closeFleet()

	log.Info("booting fleet", "agents", o.Agents, "transport", o.Transport)
	for i := range agents {
		fa := &fleetAgent{idx: i, id: fmt.Sprintf("ap-%05d", i)}
		fa.rep = buildReport(fa.id, i, o, rng)
		agents[i] = fa
		ropts := ctlnet.ReconnectOptions{
			Backoff: ctlnet.Backoff{Min: 25 * time.Millisecond, Max: time.Second},
			Agent: ctlnet.AgentOptions{
				HeartbeatInterval: o.Heartbeat,
				ReadBufBytes:      4 << 10,
				Obs:               reg,
			},
			Dial: func(ctx context.Context, a string) (net.Conn, error) {
				c, err := baseDial(ctx, a)
				if err == nil {
					fa.track(c)
				}
				return c, err
			},
			Obs:  reg,
			Seed: int64(i + 1),
		}
		ra, err := ctlnet.NewReconnectingAgent(actx, addr, ctlnet.Hello{APID: fa.id, TxPowerDBm: 20}, ropts)
		if err != nil {
			return nil, err
		}
		fa.ra = ra
		if err := ra.SendReport(fa.rep); err != nil {
			return nil, err
		}
	}

	// Wait for full membership and a report from everyone.
	bootDeadline := time.Now().Add(2 * time.Minute)
	for srv.KnownAgents() < o.Agents || srv.ReportedAgents() < o.Agents {
		if time.Now().After(bootDeadline) {
			return nil, fmt.Errorf("fleetsim: boot stalled: %d/%d known, %d/%d reported",
				srv.KnownAgents(), o.Agents, srv.ReportedAgents(), o.Agents)
		}
		if err := sleepCtx(ctx, 20*time.Millisecond); err != nil {
			return nil, err
		}
	}
	// Reports replayed on a reconnect can race the boot check; give every
	// agent a fresh report so the view is fully sequenced before solving.
	log.Info("fleet booted, reallocating")

	res := &Result{Agents: o.Agents}

	// Initial convergence.
	t0 := time.Now()
	if _, err := srv.Reallocate(); err != nil {
		return nil, fmt.Errorf("fleetsim: reallocate: %w", err)
	}
	if err := waitConverged(ctx, srv, agents, 2*time.Minute); err != nil {
		return nil, err
	}
	res.ConvergeTime = time.Since(t0)
	log.Info("fleet converged", "agents", o.Agents, "in", res.ConvergeTime)

	// Steady phase: jittered periodic reports, churn kills, storm bursts.
	appliedBefore := counterVal(reg, "acorn_ctlnet_reports_total")
	var resets atomic.Uint64
	steadyStart := time.Now()
	sctx, scancel := context.WithTimeout(ctx, o.Duration)
	var wg sync.WaitGroup
	if o.ReportInterval > 0 {
		for _, fa := range agents {
			wg.Add(1)
			go func(fa *fleetAgent, seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for {
					d := o.ReportInterval/2 + time.Duration(r.Int63n(int64(o.ReportInterval)))
					if sleepCtx(sctx, d) != nil {
						return
					}
					_ = fa.ra.SendReport(fa.rep)
				}
			}(fa, o.Seed+int64(fa.idx)*7919)
		}
	}
	// Churn: kill ChurnFrac of the fleet, spread over the phase. Kill k is
	// scheduled at an absolute offset, (k+1)·Duration/(n+1) into the phase,
	// and waits on the outer ctx, so timer overshoot delays a kill instead
	// of dropping it when the phase ends; wg.Wait waits for the last one.
	if o.ChurnFrac > 0 {
		kills := rng.Perm(o.Agents)[:int(float64(o.Agents)*o.ChurnFrac)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, idx := range kills {
				at := steadyStart.Add(time.Duration(k+1) * o.Duration / time.Duration(len(kills)+1))
				if sleepCtx(ctx, time.Until(at)) != nil {
					return
				}
				if agents[idx].kill() {
					resets.Add(1)
				}
			}
		}()
	}
	// Storms: StormFrac of the fleet each fires one back-to-back burst.
	if o.StormFrac > 0 {
		stormers := rng.Perm(o.Agents)[:int(float64(o.Agents)*o.StormFrac)]
		for _, idx := range stormers {
			fa := agents[idx]
			wg.Add(1)
			go func(fa *fleetAgent, at time.Duration) {
				defer wg.Done()
				if sleepCtx(sctx, at) != nil {
					return
				}
				for b := 0; b < o.StormBurst; b++ {
					_ = fa.ra.SendReport(fa.rep)
				}
			}(fa, time.Duration(rng.Int63n(int64(o.Duration))))
		}
	}
	<-sctx.Done()
	scancel()
	wg.Wait()
	res.SteadyDuration = time.Since(steadyStart)
	res.Resets = resets.Load()

	// Let churned agents reconnect, then re-converge the fleet.
	if res.Resets > 0 {
		reconnectDeadline := time.Now().Add(time.Minute)
		for {
			connected := 0
			for _, fa := range agents {
				if fa.ra.Connected() {
					connected++
				}
			}
			if connected == o.Agents {
				break
			}
			if time.Now().After(reconnectDeadline) {
				return nil, fmt.Errorf("fleetsim: %d/%d agents reconnected after churn", connected, o.Agents)
			}
			if err := sleepCtx(ctx, 25*time.Millisecond); err != nil {
				return nil, err
			}
		}
		if _, err := srv.Reallocate(); err != nil {
			return nil, fmt.Errorf("fleetsim: post-churn reallocate: %w", err)
		}
	}
	if err := waitConverged(ctx, srv, agents, time.Minute); err != nil {
		return nil, err
	}
	res.Converged = true

	// Harvest.
	res.ReportsApplied = counterVal(reg, "acorn_ctlnet_reports_total")
	if steady := res.ReportsApplied - appliedBefore; res.SteadyDuration > 0 {
		res.ReportsPerSec = float64(steady) / res.SteadyDuration.Seconds()
	}
	res.ShardCoalesced = sumSeries(reg, "acorn_ctlnet_shard_reports_coalesced_total")
	res.ShardShed = sumSeries(reg, "acorn_ctlnet_shard_reports_shed_total")
	res.ReportsSame = counterVal(reg, "acorn_ctlnet_agent_reports_same_total")
	res.PushesEnqueued = counterVal(reg, "acorn_ctlnet_assignment_pushes_total")
	res.PushesDeduped = counterVal(reg, "acorn_ctlnet_pushes_deduped_total")
	res.PushErrors = counterVal(reg, "acorn_ctlnet_assignment_push_errors_total")
	res.Heartbeats = counterVal(reg, "acorn_ctlnet_heartbeats_total")
	res.Sessions = counterVal(reg, "acorn_ctlnet_sessions_total")
	res.PushP50 = srv.PushLatencyQuantile(0.50)
	res.PushP99 = srv.PushLatencyQuantile(0.99)
	res.BytesOnWire = counterVal(reg, "acorn_ctlnet_server_tx_bytes_total") +
		counterVal(reg, "acorn_ctlnet_server_rx_bytes_total")
	res.MembershipLost = o.Agents - srv.KnownAgents()
	for _, sv := range tracer.Snapshot(8) {
		if sv.Kind == "full" {
			res.ReallocStages = sv.Stages
			break
		}
	}
	return res, nil
}

// waitConverged polls until every agent's current channel equals the
// controller's stored assignment for its AP.
func waitConverged(ctx context.Context, srv *ctlnet.Server, agents []*fleetAgent, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		want := srv.Assignments()
		ok := 0
		for _, fa := range agents {
			w, has := want[fa.id]
			if has && w != (spectrum.Channel{}) && fa.ra.Current() == w {
				ok++
			}
		}
		if ok == len(agents) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleetsim: convergence stalled: %d/%d agents hold their assignment", ok, len(agents))
		}
		if err := sleepCtx(ctx, 50*time.Millisecond); err != nil {
			return err
		}
	}
}

// buildReport synthesizes AP i's fixed measurement: ClientsPerAP clients
// with jittered SNRs and full mutual hearing inside its cluster.
func buildReport(id string, i int, o Options, rng *rand.Rand) ctlnet.Report {
	rep := ctlnet.Report{APID: id}
	for c := 0; c < o.ClientsPerAP; c++ {
		rep.Clients = append(rep.Clients, ctlnet.ClientObs{
			ClientID: fmt.Sprintf("c%d", c),
			SNR20dB:  18 + 14*rng.Float64(),
		})
	}
	cluster := i / o.ClusterSize
	lo, hi := cluster*o.ClusterSize, (cluster+1)*o.ClusterSize
	if hi > o.Agents {
		hi = o.Agents
	}
	for p := lo; p < hi; p++ {
		if p != i {
			rep.Hears = append(rep.Hears, fmt.Sprintf("ap-%05d", p))
		}
	}
	return rep
}

// sleepCtx sleeps d or until ctx is done (returning its error).
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// counterVal reads one counter from a registry snapshot (0 if absent).
func counterVal(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Value != nil {
			return uint64(*s.Value)
		}
	}
	return 0
}

// sumSeries sums a labelled family's children (0 if absent).
func sumSeries(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Series != nil {
			var sum float64
			for _, v := range s.Series {
				sum += v
			}
			return uint64(sum)
		}
	}
	return 0
}
