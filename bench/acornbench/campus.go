package main

// campus-stream: the in-process core.StreamController over a geometric
// campus. There is no wire at all, so this workload isolates the
// incremental engines (association engine, dirty-rank cache, union-find
// partition, spatial grid, no-op fast path) that today's networked path
// does not use.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
	"acorn/internal/rf"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

const (
	campusBuildings = 8
	campusPitch     = 60.0   // metres between neighbouring APs
	campusSpacing   = 5000.0 // metres between buildings: no contention across them
	campusClients   = 4      // clients admitted per AP at set-up
	campusTxPower   = 18
	// campusEventRate sizes the closed loop: events per second of -seconds.
	campusEventRate = 300
)

// campus is a booted stream controller plus the bench's record of which
// client incarnations are present.
type campus struct {
	n    *wlan.Network
	ctrl *core.Controller
	s    *core.StreamController
	reg  *obs.Registry

	cur  map[string]*wlan.Client // present clients by ID, current incarnation
	ids  []string                // present client IDs, for uniform picks
	slot map[string]int          // ID → index in ids
	next int                     // next fresh client number
}

// campusAPs lays out cfg.CampusAPs APs over campusBuildings buildings on a
// jittered grid.
func campusAPs(cfg config, rng *rand.Rand) []*wlan.AP {
	per := max(cfg.CampusAPs/campusBuildings, 1)
	bcols := int(math.Ceil(math.Sqrt(campusBuildings)))
	cols := int(math.Ceil(math.Sqrt(float64(per))))
	aps := make([]*wlan.AP, 0, campusBuildings*per)
	for b := 0; b < campusBuildings; b++ {
		ox, oy := float64(b%bcols)*campusSpacing, float64(b/bcols)*campusSpacing
		for i := 0; i < per; i++ {
			aps = append(aps, &wlan.AP{
				ID: fmt.Sprintf("ap%05d", len(aps)),
				Pos: rf.Point{
					X: ox + float64(i%cols)*campusPitch + rng.Float64()*8,
					Y: oy + float64(i/cols)*campusPitch + rng.Float64()*8,
				},
				TxPower: campusTxPower,
			})
		}
	}
	return aps
}

// clientNear makes a client within 25 m of ap, behind a 6–24 dB wall from
// it when wall is set. Callers set it for every third client they make,
// rather than drawing it, so the share of walled clients does not vary
// with the seed.
func clientNear(id string, ap *wlan.AP, wall bool, rng *rand.Rand) *wlan.Client {
	c := &wlan.Client{ID: id, Pos: rf.Point{
		X: ap.Pos.X + (rng.Float64()-0.5)*50,
		Y: ap.Pos.Y + (rng.Float64()-0.5)*50,
	}}
	if wall {
		c.ExtraLoss = map[string]units.DB{ap.ID: units.DB(6 + rng.Float64()*18)}
	}
	return c
}

func (c *campus) add(u *wlan.Client) {
	c.cur[u.ID] = u
	c.slot[u.ID] = len(c.ids)
	c.ids = append(c.ids, u.ID)
}

func (c *campus) remove(id string) {
	i := c.slot[id]
	last := c.ids[len(c.ids)-1]
	c.ids[i], c.slot[last] = last, i
	c.ids = c.ids[:len(c.ids)-1]
	delete(c.slot, id)
	delete(c.cur, id)
}

// bootCampus builds the campus and times its set-up: NewController, the
// arrival of campusClients clients per AP pumped through the stream, and
// one FullPass.
func bootCampus(cfg config, tracer *obs.Tracer) (*campus, time.Duration, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	aps := campusAPs(cfg, rng)
	var arrivals []*wlan.Client
	for _, ap := range aps {
		for k := 0; k < campusClients; k++ {
			n := len(arrivals)
			arrivals = append(arrivals, clientNear(fmt.Sprintf("u%06d", n), ap, n%3 == 0, rng))
		}
	}
	c := &campus{n: wlan.NewNetwork(aps, nil), reg: obs.NewRegistry(),
		cur: map[string]*wlan.Client{}, slot: map[string]int{}, next: len(arrivals)}

	t0 := time.Now()
	ctrl, err := core.NewController(c.n, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	ctrl.Obs = c.reg
	c.ctrl = ctrl
	c.s = core.NewStreamController(ctrl, core.StreamOptions{Gate: benchGate, Tracer: tracer})
	for _, u := range arrivals {
		if !c.s.Offer(core.Event{Kind: core.EventArrive, Client: u}) {
			return nil, 0, fmt.Errorf("set-up arrival %s refused", u.ID)
		}
		c.add(u)
	}
	for c.s.Pump() > 0 {
	}
	c.s.FullPass()
	return c, time.Since(t0), nil
}

// campusEvent is one generated operation; kind names its latency class.
type campusEvent struct {
	kind string
	ev   core.Event
}

// events generates k events from rng: 70% unchanged reports (the same
// *wlan.Client, so the no-op fast path may apply), 20% moves (a new
// incarnation near another AP), 5% arrivals, 5% departures. The shares
// are exact and shuffled, and moves and arrivals visit the APs in a
// seeded round-robin, so the seed changes which clients and APs are
// involved but not how much work of each kind the phase holds, nor how
// far the clients-per-AP spread drifts from set-up's.
func (c *campus) events(k int, rng *rand.Rand) []campusEvent {
	kinds := make([]string, k)
	for i := range kinds {
		switch {
		case i < k*70/100:
			kinds[i] = "noop"
		case i < k*90/100:
			kinds[i] = "move"
		case i < k*95/100:
			kinds[i] = "arrive"
		default:
			kinds[i] = "depart"
		}
	}
	rng.Shuffle(k, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	aps := c.n.APs
	order := rng.Perm(len(aps))
	made := 0 // clients made, for the walled third and the AP round-robin
	fresh := func(id string) *wlan.Client {
		u := clientNear(id, aps[order[made%len(aps)]], made%3 == 0, rng)
		made++
		return u
	}
	pick := func() string { return c.ids[rng.Intn(len(c.ids))] }
	// Movers are taken round-robin from a shuffled queue of the present
	// clients, so each client moves once before any moves twice.
	movers := append([]string(nil), c.ids...)
	rng.Shuffle(len(movers), func(i, j int) { movers[i], movers[j] = movers[j], movers[i] })
	mover := func() string {
		for {
			id := movers[0]
			movers = movers[1:]
			if _, present := c.cur[id]; present {
				movers = append(movers, id)
				return id
			}
		}
	}
	out := make([]campusEvent, 0, k)
	for _, kind := range kinds {
		var ev core.Event
		switch kind {
		case "noop":
			ev = core.Event{Kind: core.EventReport, Client: c.cur[pick()]}
		case "move":
			u := fresh(mover())
			c.cur[u.ID] = u
			ev = core.Event{Kind: core.EventReport, Client: u}
		case "arrive":
			u := fresh(fmt.Sprintf("u%06d", c.next))
			c.next++
			c.add(u)
			movers = append(movers, u.ID)
			ev = core.Event{Kind: core.EventArrive, Client: u}
		case "depart":
			id := pick()
			c.remove(id)
			ev = core.Event{Kind: core.EventDepart, ClientID: id}
		}
		out = append(out, campusEvent{kind, ev})
	}
	return out
}

// setupCampus times one campus set-up.
func setupCampus(cfg config) (time.Duration, error) {
	_, d, err := bootCampus(cfg, nil)
	return d, err
}

// runCampus boots the campus, then runs a closed loop of generated events
// with one caller: each event is Offered and Pumped, and its latency is
// the wall time of the two calls.
func runCampus(cfg config) (*result, error) {
	r := newResult(cfg)
	var tracer *obs.Tracer
	if cfg.Traced {
		tracer = core.NewStreamTracer(1<<16, 1, nil)
	}
	c, setup, err := bootCampus(cfg, tracer)
	if err != nil {
		return nil, err
	}
	evs := c.events(cfg.events(), rand.New(rand.NewSource(cfg.Seed+1)))

	before, st0 := snapshot(c.reg), c.s.Stats()
	var lates, offers, pumps, samples []time.Duration
	byKind := map[string][]time.Duration{}
	refused := 0
	pc := startPhase()
	prev := pc.start
	for _, e := range evs {
		t0 := time.Now()
		if !c.s.Offer(e.ev) {
			refused++
		}
		t1 := time.Now()
		c.s.Pump()
		t2 := time.Now()
		lates = append(lates, t0.Sub(prev))
		offers = append(offers, t1.Sub(t0))
		pumps = append(pumps, t2.Sub(t1))
		samples = append(samples, t2.Sub(t0))
		byKind[e.kind] = append(byKind[e.kind], t2.Sub(t0))
		prev = t2
	}
	elapsed := prev.Sub(pc.start)
	pc.stop(r, len(evs))
	after, st := snapshot(c.reg), c.s.Stats()

	cfgView := c.ctrl.ConfigView()
	if err := cfgView.Validate(c.n); err != nil {
		r.gate("final configuration invalid: %v", err)
	}
	shed := int(st.ShedReports + st.ShedCritical - st0.ShedReports - st0.ShedCritical)
	r.Attempted = len(evs)
	r.Failed = refused + shed
	r.set("ops_per_s", float64(len(evs))/elapsed.Seconds(), "1/s")
	r.set("goodput_mbps", c.n.Evaluate(cfgView).TotalUDP, "Mbit/s")

	r.ms("bench.gen_late_p99_ms", quantileDur(lates, 0.99))
	r.ms("bench.gen_late_max_ms", maxDur(lates))
	r.set("core.stream.offer_us_p50", float64(quantileDur(offers, 0.50))/float64(time.Microsecond), "us")
	r.ms("core.stream.pump_ms_p50", quantileDur(pumps, 0.50))
	r.ms("core.stream.pump_ms_p99", quantileDur(pumps, 0.99))
	for _, kind := range []string{"noop", "move", "arrive", "depart"} {
		r.ms("core.stream."+kind+"_p50_ms", quantileDur(byKind[kind], 0.50))
	}
	r.ms("core.stream.move_p99_ms", quantileDur(byKind["move"], 0.99))
	r.set("core.stream.noop_skips", float64(st.NoopSkips-st0.NoopSkips), "count")
	r.set("core.stream.local_reopts", float64(st.LocalReopts-st0.LocalReopts), "count")
	r.set("core.stream.generic_reopts", float64(st.GenericReopts-st0.GenericReopts), "count")
	r.set("core.stream.engine_deferrals", float64(st.EngineDeferrals-st0.EngineDeferrals), "count")
	r.set("core.stream.switches", float64(st.SwitchesApplied-st0.SwitchesApplied), "count")
	setGateMetrics(r, st0.Gate, st.Gate)
	setAllocMetrics(r, before, after)
	if cfg.Traced {
		spans := summarizeSpans(r, c.s.Tracer(), pc.start)
		for _, stage := range []string{"queue", "batch", "admit", "neigh", "reopt", "gate"} {
			r.set("core.stage."+stage+"_ms", spans.stages[stage], "ms")
		}
		r.set("core.attr.rank_eval_ms", spans.attrs["rank_eval"], "ms")
		r.set("core.attr.assoc_eval_ms", spans.attrs["assoc_eval"], "ms")
	}
	r.idle = []string{"ctlnet."}
	r.setEndToEnd(samples, setup)
	return r, nil
}
