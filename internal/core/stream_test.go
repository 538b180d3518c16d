package core

// Streaming-controller suite: queue semantics (coalescing, annihilation,
// shedding, conservation — nothing vanishes uncounted), SwitchGate
// hysteresis/rate invariants, the degradation ladder and watchdog, a
// deterministic churn storm, and the delay-memo boundedness satellite.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"acorn/internal/obs"
	"acorn/internal/rf"
	"acorn/internal/spectrum"
	"acorn/internal/wlan"
)

// vclock is a manually advanced clock for deterministic stream replay.
type vclock struct{ t time.Time }

func newVclock() *vclock {
	return &vclock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (v *vclock) now() time.Time          { return v.t }
func (v *vclock) advance(d time.Duration) { v.t = v.t.Add(d) }

// streamFixture builds a small grid controller with an isolated registry and
// no initial clients; events introduce the population.
func streamFixture(t testing.TB, apCount int, seed int64) (*Controller, *wlan.Network) {
	t.Helper()
	n, _ := scaleNetwork(apCount, 0, seed)
	ctrl, err := NewController(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Obs = obs.NewRegistry()
	return ctrl, n
}

// clientNear makes a client within association range of AP index i.
func clientNear(n *wlan.Network, i int, id string) *wlan.Client {
	ap := n.APs[i%len(n.APs)]
	return &wlan.Client{ID: id, Pos: rf.Point{X: ap.Pos.X + 5, Y: ap.Pos.Y + 3}}
}

func TestStreamCoalescing(t *testing.T) {
	ctrl, n := streamFixture(t, 4, 1)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now})

	u1 := clientNear(n, 0, "u1")
	if !s.Offer(Event{Kind: EventReport, Client: u1}) {
		t.Fatal("offer rejected")
	}
	s.Offer(Event{Kind: EventReport, Client: u1}) // latest wins, no growth
	if st := s.Stats(); st.Offered != 2 || st.Coalesced != 1 || st.Depth != 1 {
		t.Fatalf("report coalescing: %+v", st)
	}

	// Arrival met by departure before processing: both cancel.
	u2 := clientNear(n, 1, "u2")
	s.Offer(Event{Kind: EventArrive, Client: u2})
	s.Offer(Event{Kind: EventDepart, ClientID: "u2"})
	if st := s.Stats(); st.Annihilated != 1 || st.Depth != 1 {
		t.Fatalf("annihilation: %+v", st)
	}

	// Depart then (re-)arrive is ordered work: two live entries.
	s.Offer(Event{Kind: EventDepart, ClientID: "u3"})
	s.Offer(Event{Kind: EventArrive, Client: clientNear(n, 2, "u3")})
	if st := s.Stats(); st.Depth != 3 {
		t.Fatalf("depart+arrive should queue separately: %+v", st)
	}

	// A report over a pending membership event adds nothing.
	s.Offer(Event{Kind: EventReport, Client: clientNear(n, 2, "u3")})
	if st := s.Stats(); st.Depth != 3 || st.Coalesced != 2 {
		t.Fatalf("report over membership: %+v", st)
	}

	// Malformed offers are rejected outright.
	if s.Offer(Event{Kind: EventArrive}) || s.Offer(Event{Kind: EventReport}) {
		t.Fatal("accepted an event with no client")
	}
}

func TestStreamSheddingPolicy(t *testing.T) {
	ctrl, n := streamFixture(t, 4, 2)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now, MaxQueue: 3})

	// Oldest report goes first: queue [report r0, arrive a0, report r1],
	// then one more arrival sheds r0 (not the membership events).
	s.Offer(Event{Kind: EventReport, Client: clientNear(n, 0, "r0")})
	s.Offer(Event{Kind: EventArrive, Client: clientNear(n, 1, "a0")})
	s.Offer(Event{Kind: EventReport, Client: clientNear(n, 2, "r1")})
	s.Offer(Event{Kind: EventArrive, Client: clientNear(n, 3, "a1")})
	st := s.Stats()
	if st.ShedReports != 1 || st.ShedCritical != 0 || st.Depth != 3 {
		t.Fatalf("report shed: %+v", st)
	}

	// All-membership queue: shedding has nothing cheap and goes critical.
	for i := 0; i < 2; i++ {
		s.Offer(Event{Kind: EventArrive, Client: clientNear(n, i, fmt.Sprintf("b%d", i))})
	}
	st = s.Stats()
	if st.ShedCritical == 0 {
		t.Fatalf("critical shed never fired: %+v", st)
	}
	if st.Depth != 3 || st.MaxDepth > 3 {
		t.Fatalf("queue bound violated: %+v", st)
	}

	// A shed client can be re-offered (pending map must not hold tombstones).
	if !s.Offer(Event{Kind: EventReport, Client: clientNear(n, 0, "r0")}) {
		t.Fatal("re-offer of shed client rejected")
	}
}

func TestStreamPumpMembershipAndConservation(t *testing.T) {
	ctrl, n := streamFixture(t, 4, 3)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now, RecordLatencies: 64})

	clients := make([]*wlan.Client, 0, 8)
	for i := 0; i < 8; i++ {
		u := clientNear(n, i, fmt.Sprintf("c%d", i))
		clients = append(clients, u)
		s.Offer(Event{Kind: EventArrive, Client: u})
	}
	vc.advance(50 * time.Millisecond)
	s.Pump()
	if got := len(ctrl.ConfigView().Assoc); got != 8 {
		t.Fatalf("want 8 associations after arrivals, got %d", got)
	}
	if len(n.Clients) != 8 {
		t.Fatalf("network membership not maintained: %d clients", len(n.Clients))
	}

	// Reports roam; departures retire membership and association.
	for _, u := range clients[:4] {
		s.Offer(Event{Kind: EventReport, Client: u})
	}
	for _, u := range clients[4:] {
		s.Offer(Event{Kind: EventDepart, ClientID: u.ID})
	}
	s.Pump()
	if got := len(ctrl.ConfigView().Assoc); got != 4 {
		t.Fatalf("want 4 associations after departures, got %d", got)
	}
	if len(n.Clients) != 4 {
		t.Fatalf("departed clients still network members: %d", len(n.Clients))
	}

	st := s.Stats()
	// Conservation: every accepted offer is accounted for — applied,
	// coalesced, annihilated (×2: the offer and the queued entry), shed, or
	// still queued. Nothing vanishes silently.
	accounted := st.Applied + st.Coalesced + 2*st.Annihilated +
		st.ShedReports + st.ShedCritical + uint64(st.Depth)
	if st.Offered != accounted {
		t.Fatalf("event conservation broken: offered %d, accounted %d (%+v)",
			st.Offered, accounted, st)
	}
	if st.LatencyCount == 0 || st.LatencyP50Cum <= 0 {
		t.Fatalf("decision latencies not recorded in ring: %+v", st)
	}
	if st.LatencyWindowCount == 0 || st.LatencyP50 <= 0 {
		t.Fatalf("windowed decision latencies not recorded: %+v", st)
	}
}

func TestSwitchGateHysteresisStreakAndMargin(t *testing.T) {
	vc := newVclock()
	chs := spectrum.DefaultBand5GHz().AllChannels()
	g := NewSwitchGate(GateOptions{Margin: 0.05, Streak: 2, RatePerHour: -1}, vc.now)

	// Below-margin gains never pass and reset the streak.
	if g.Consider("ap0", chs[0], 0.01, false) {
		t.Fatal("sub-margin switch approved")
	}
	// First above-margin proposal: streak 1 of 2 — vetoed.
	if g.Consider("ap0", chs[0], 0.10, false) {
		t.Fatal("first confirmation approved before streak")
	}
	// A different channel restarts the streak.
	if g.Consider("ap0", chs[1], 0.10, false) {
		t.Fatal("channel change kept the old streak")
	}
	if g.Consider("ap0", chs[1], 0.10, false) != true {
		t.Fatal("sustained proposal vetoed")
	}
	st := g.Stats()
	if st.Approved != 1 || st.MarginVetoes != 1 || st.StreakVetoes != 2 {
		t.Fatalf("gate stats: %+v", st)
	}
	// A margin failure mid-streak resets it.
	g.Consider("ap0", chs[0], 0.10, false)
	g.Consider("ap0", chs[0], 0.001, false) // resets
	if g.Consider("ap0", chs[0], 0.10, false) {
		t.Fatal("streak survived a margin failure")
	}
}

func TestSwitchGateTokenBucketBoundsRate(t *testing.T) {
	vc := newVclock()
	chs := spectrum.DefaultBand5GHz().AllChannels()
	// 60 switches/hour (one per minute), burst 2, instant streak.
	g := NewSwitchGate(GateOptions{Streak: -1, RatePerHour: 60, Burst: 2, FlapWindow: 24 * time.Hour}, vc.now)

	approvals := 0
	for i := 0; i < 10; i++ {
		if g.Consider("ap0", chs[i%len(chs)], 1.0, false) {
			approvals++
		}
	}
	if approvals != 2 {
		t.Fatalf("burst 2 allowed %d back-to-back switches", approvals)
	}
	if st := g.Stats(); st.RateVetoes != 8 {
		t.Fatalf("want 8 rate vetoes, got %+v", st)
	}
	// One minute refills exactly one token; the preserved streak commits.
	vc.advance(time.Minute)
	if !g.Consider("ap0", chs[0], 1.0, false) {
		t.Fatal("refilled token not granted")
	}
	if g.Consider("ap0", chs[1], 1.0, false) {
		t.Fatal("empty bucket approved a switch")
	}
	// bypassStreak (watchdog full passes) must still pay tokens.
	vc.advance(time.Minute)
	if !g.Consider("ap1", chs[0], 1.0, true) {
		t.Fatal("bypass with tokens vetoed")
	}
	g.Consider("ap1", chs[1], 1.0, true)
	if g.Consider("ap1", chs[2], 1.0, true) {
		t.Fatal("bypassStreak bypassed the token bucket")
	}

	// The formal bound: in any observed window W, per-AP switches never
	// exceed burst + rate·W.
	assertRateInvariant(t, g, 60, 2)
}

// assertRateInvariant checks every AP's switch history against the token
// bucket bound over all O(n²) windows.
func assertRateInvariant(t *testing.T, g *SwitchGate, ratePerHour float64, burst int) {
	t.Helper()
	for ap, times := range g.SwitchTimes() {
		for i := range times {
			for j := i; j < len(times); j++ {
				w := times[j].Sub(times[i]).Hours()
				bound := float64(burst) + ratePerHour*w
				if got := float64(j - i + 1); got > bound+1e-9 {
					t.Fatalf("rate violation at %s: %v switches in %.4fh (bound %.2f)",
						ap, j-i+1, w, bound)
				}
			}
		}
	}
}

func TestStreamDegradationLadderAndWatchdog(t *testing.T) {
	ctrl, n := streamFixture(t, 4, 4)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{
		Now:            vc.now,
		MaxQueue:       64,
		MaxBatch:       1, // keep the queue deep across pumps
		DegradeDepth:   4,
		DegradeAfter:   time.Nanosecond,
		RecoverBelow:   2,
		WatchdogPeriod: time.Minute,
		Gate:           GateOptions{Streak: -1, Margin: -1},
	})

	for i := 0; i < 10; i++ {
		s.Offer(Event{Kind: EventReport, Client: clientNear(n, i, fmt.Sprintf("d%d", i))})
	}
	s.Pump() // saturation observed, clock not yet past DegradeAfter
	vc.advance(time.Millisecond)
	s.Pump() // degrades
	if st := s.Stats(); !st.Degraded || st.Degradations != 1 {
		t.Fatalf("stream did not degrade: %+v", st)
	}

	// Degraded pumps defer re-optimization; the watchdog eventually forces
	// a full pass.
	vc.advance(2 * time.Minute)
	s.Pump()
	st := s.Stats()
	if st.WatchdogFires == 0 || st.FullPasses == 0 {
		t.Fatalf("watchdog never fired while degraded: %+v", st)
	}

	// Draining below RecoverBelow recovers and runs the deferred batch.
	for s.Depth() > 1 {
		s.Pump()
	}
	vc.advance(time.Millisecond)
	s.Pump()
	if st := s.Stats(); st.Degraded {
		t.Fatalf("stream never recovered: %+v", st)
	}
}

// TestStreamChurnStorm drives a seeded storm of arrivals, reports and
// departures through the streaming path under a virtual clock and asserts
// the three robustness invariants: bounded queue memory, zero switch-rate
// violations, and a consistent final state (live clients associated,
// conservation intact).
func TestStreamChurnStorm(t *testing.T) {
	ctrl, n := streamFixture(t, 9, 5)
	vc := newVclock()
	const (
		maxQueue = 32
		rate     = 30.0
		burst    = 2
	)
	s := NewStreamController(ctrl, StreamOptions{
		Now:      vc.now,
		MaxQueue: maxQueue,
		Gate: GateOptions{
			Margin:      0.02,
			Streak:      2,
			RatePerHour: rate,
			Burst:       burst,
			FlapWindow:  24 * time.Hour, // retain the whole storm for the invariant check
		},
		WatchdogPeriod: 5 * time.Minute,
	})

	rng := rand.New(rand.NewSource(7))
	live := make([]*wlan.Client, 0, 64)
	nextID := 0
	for step := 0; step < 600; step++ {
		vc.advance(time.Duration(1+rng.Intn(2000)) * time.Millisecond)
		burstN := 1 + rng.Intn(5)
		for b := 0; b < burstN; b++ {
			switch {
			case len(live) < 8 || rng.Float64() < 0.35:
				u := clientNear(n, rng.Intn(len(n.APs)), fmt.Sprintf("s%05d", nextID))
				nextID++
				live = append(live, u)
				s.Offer(Event{Kind: EventArrive, Client: u})
			case rng.Float64() < 0.5:
				u := live[rng.Intn(len(live))]
				s.Offer(Event{Kind: EventReport, Client: u})
			default:
				i := rng.Intn(len(live))
				s.Offer(Event{Kind: EventDepart, ClientID: live[i].ID})
				live = append(live[:i], live[i+1:]...)
			}
		}
		if rng.Float64() < 0.7 {
			s.Pump()
		}
		if d := s.Depth(); d > maxQueue {
			t.Fatalf("queue bound broken at step %d: depth %d", step, d)
		}
	}
	// Quiesce: drain everything.
	for s.Pump() > 0 {
	}

	st := s.Stats()
	if st.MaxDepth > maxQueue {
		t.Fatalf("max depth %d exceeded bound %d", st.MaxDepth, maxQueue)
	}
	if st.QueueLen != 0 || st.Depth != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
	accounted := st.Applied + st.Coalesced + 2*st.Annihilated +
		st.ShedReports + st.ShedCritical
	if st.Offered != accounted {
		t.Fatalf("conservation broken after storm: offered %d accounted %d (%+v)",
			st.Offered, accounted, st)
	}
	assertRateInvariant(t, s.Gate(), rate, burst)

	// Final state consistency: exactly the live clients are members, and
	// every one of them (all in range by construction) holds an association.
	if len(n.Clients) != len(live) {
		t.Fatalf("membership drift: %d network clients vs %d live", len(n.Clients), len(live))
	}
	cfg := ctrl.ConfigView()
	for _, u := range live {
		if cfg.Assoc[u.ID] == "" {
			t.Fatalf("live client %s unassociated after quiesce", u.ID)
		}
	}
	if len(cfg.Assoc) != len(live) {
		t.Fatalf("stale associations: %d assoc vs %d live", len(cfg.Assoc), len(live))
	}
}

// TestAssocMemoBoundedUnderChurn is the satellite acceptance test: 10k
// unique clients churn through a 4-AP cell with at most 64 alive at once;
// every per-client engine structure must stay O(live), not O(ever-seen).
func TestAssocMemoBoundedUnderChurn(t *testing.T) {
	ctrl, n := streamFixture(t, 4, 6)
	const totalClients = 10000
	const maxLive = 64

	var live []*wlan.Client
	for i := 0; i < totalClients; i++ {
		u := clientNear(n, i, fmt.Sprintf("m%05d", i))
		n.Clients = append(n.Clients, u)
		ctrl.Admit(u)
		live = append(live, u)
		if len(live) > maxLive {
			old := live[0]
			live = live[1:]
			ctrl.Evict(old.ID)
			n.RemoveClient(old.ID)
		}
	}
	e := ctrl.engine
	if e == nil {
		t.Fatal("engine fell back during churn")
	}
	if len(e.clients) != maxLive {
		t.Fatalf("client states not evicted: %d tracked, %d live", len(e.clients), maxLive)
	}
	if len(e.memoKeys) > maxLive {
		t.Fatalf("memo index not evicted: %d incarnations indexed", len(e.memoKeys))
	}
	// Each live client can hold at most one delay entry per in-range AP per
	// distinct channel it was priced on; channels are static here, so the
	// hard ceiling is live × APs. 10k clients would have blown past this by
	// two orders of magnitude before the eviction fix.
	if bound := maxLive * len(n.APs); len(e.beaconDelay) > bound {
		t.Fatalf("delay memo unbounded: %d entries, bound %d", len(e.beaconDelay), bound)
	}
	// The index and the memo agree entry-for-entry.
	indexed := 0
	for _, keys := range e.memoKeys {
		indexed += len(keys)
		for _, k := range keys {
			if _, ok := e.beaconDelay[k]; !ok {
				t.Fatalf("memo index points at evicted entry %+v", k)
			}
		}
	}
	if indexed != len(e.beaconDelay) {
		t.Fatalf("memo index out of sync: %d indexed, %d entries", indexed, len(e.beaconDelay))
	}
}

// TestStreamBackgroundConsumer smoke-tests Start/Stop with the real clock:
// offered events are applied without explicit Pump calls, and Stop drains.
func TestStreamBackgroundConsumer(t *testing.T) {
	ctrl, n := streamFixture(t, 4, 8)
	s := NewStreamController(ctrl, StreamOptions{})
	s.Start()
	for i := 0; i < 16; i++ {
		s.Offer(Event{Kind: EventArrive, Client: clientNear(n, i, fmt.Sprintf("bg%d", i))})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Applied == 16 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	if st := s.Stats(); st.Applied != 16 || st.Depth != 0 {
		t.Fatalf("background consumer incomplete: %+v", st)
	}
	if s.Offer(Event{Kind: EventDepart, ClientID: "bg0"}) {
		t.Fatal("closed stream accepted an offer")
	}
	if got := len(ctrl.ConfigView().Assoc); got != 16 {
		t.Fatalf("want 16 associations, got %d", got)
	}
}

// TestStreamPumpPublishesEngineCounters pins that a running stream moves
// the association engine's counters: every Pump publishes them, so memo
// hits, fast beacons and partition updates advance with the events rather
// than waiting for an engine rebuild or a sweep.
func TestStreamPumpPublishesEngineCounters(t *testing.T) {
	ctrl, n := streamFixture(t, 9, 5)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now, Gate: GateOptions{Streak: 1}})
	reg := ctrl.registry()
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }

	clients := make([]*wlan.Client, 12)
	for i := range clients {
		clients[i] = clientNear(n, i, fmt.Sprintf("u%02d", i))
		s.Offer(Event{Kind: EventArrive, Client: clients[i]})
	}
	s.Pump()
	beacons := counter("acorn_core_assoc_fast_beacons_total")
	misses := counter("acorn_core_assoc_delay_memo_misses_total")
	updates := counter("acorn_core_partition_updates_total")
	if beacons == 0 || misses == 0 || updates == 0 {
		t.Fatalf("after arrivals: fast beacons %d, memo misses %d, partition updates %d; want all > 0",
			beacons, misses, updates)
	}

	// Unchanged reports re-run Algorithm 1 over memoized delays.
	hits := counter("acorn_core_assoc_delay_memo_hits_total")
	vc.advance(time.Second)
	for _, u := range clients {
		s.Offer(Event{Kind: EventReport, Client: u})
	}
	s.Pump()
	if got := counter("acorn_core_assoc_delay_memo_hits_total"); got <= hits {
		t.Fatalf("memo hits %d after reports, %d before; want an advance", got, hits)
	}
	if got := counter("acorn_core_assoc_fast_beacons_total"); got <= beacons {
		t.Fatalf("fast beacons %d after reports, %d before; want an advance", got, beacons)
	}
	if builds := counter("acorn_core_assoc_engine_builds_total"); builds != 1 {
		t.Fatalf("engine builds = %d, want 1: the counters must move without a rebuild", builds)
	}
}
