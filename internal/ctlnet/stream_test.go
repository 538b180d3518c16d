package ctlnet

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"acorn/internal/core"
	"acorn/internal/faultnet"
	"acorn/internal/obs"
	"acorn/internal/spectrum"
)

// vecSum sums a labelled family's children by metric name (0 if absent).
func vecSum(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			total := 0.0
			for _, v := range s.Series {
				total += v
			}
			return total
		}
	}
	return 0
}

// reportRecv reads the stored receive time of an AP's report.
func reportRecv(s *Server, apID string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.reports[apID]
	return sr.recv, ok
}

// TestReconnectReplayStaysQuarantined is the interaction the TTL quarantine
// exists for: a ReconnectingAgent replays its last report (same Seq) after a
// reconnect. The replay must be accepted as the last-known-good view but
// must NOT refresh the report's age — otherwise a crash-looping AP could
// launder an arbitrarily stale measurement back to "fresh" forever. A
// genuinely new report (next Seq) recovers the AP.
func TestReconnectReplayStaysQuarantined(t *testing.T) {
	const ttl = 300 * time.Millisecond
	s, addr, _ := quarantineServer(t, ttl)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ra, err := NewReconnectingAgent(ctx, addr, Hello{APID: "AP1", TxPowerDBm: 18}, ReconnectOptions{
		Backoff: Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Agent: AgentOptions{
			HeartbeatInterval: 20 * time.Millisecond,
			PeerTimeout:       2 * time.Second,
			WriteTimeout:      time.Second,
		},
		Obs: s.Obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	if err := ra.SendReport(report(nil, 25)); err != nil { // Seq 1
		t.Fatal(err)
	}
	waitForReports(t, s, 1)
	recv0, ok := reportRecv(s, "AP1")
	if !ok {
		t.Fatal("report not stored")
	}

	// Let the view age past the TTL, then kill the server-side session: the
	// agent reconnects and replays the Seq-1 report.
	time.Sleep(ttl + 50*time.Millisecond)
	s.mu.Lock()
	ac := s.agents["AP1"]
	s.mu.Unlock()
	if ac == nil {
		t.Fatal("no live session to kill")
	}
	ac.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for counterValue(s.Obs, "acorn_ctlnet_reports_replayed_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reconnect replay never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, _ := reportRecv(s, "AP1"); !got.Equal(recv0) {
		t.Fatalf("replay refreshed the report's age: recv %v -> %v", recv0, got)
	}
	// The replayed view is still stale, and it is the only view: refuse.
	if _, err := s.Reallocate(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("reallocate after replay: err = %v, want stale refusal", err)
	}

	// The next fresh measurement (Seq 2) recovers the AP.
	mark := time.Now()
	if err := ra.SendReport(report(nil, 26)); err != nil {
		t.Fatal(err)
	}
	waitForFreshReports(t, s, mark, "AP1")
	if _, err := s.Reallocate(); err != nil {
		t.Fatalf("reallocate after fresh report: %v", err)
	}
}

// streamServer starts a stream-enabled server on a loopback listener,
// optionally wrapped by a fault injector. configure (may be nil) runs
// before Serve so no field write races the handler goroutines.
func streamServer(t *testing.T, cfg StreamConfig, inj *faultnet.Injector, configure func(*Server)) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = cfg
	if configure != nil {
		configure(s)
	}
	lis := net.Listener(l)
	if inj != nil {
		lis = inj.WrapListener(l)
	}
	go func() { _ = s.Serve(lis) }()
	t.Cleanup(func() { _ = s.Close() })
	return s, l.Addr().String()
}

// TestStreamModeReallocatesOnReports: with Stream.Enabled, reports alone —
// no Reallocate call — must produce assignments: the reports mark their APs
// dirty, the consumer wakes, and a neighbourhood pass allocates and pushes.
func TestStreamModeReallocatesOnReports(t *testing.T) {
	s, addr := streamServer(t, StreamConfig{
		Enabled:        true,
		WatchdogPeriod: -1,
		Gate:           core.GateOptions{Streak: 1, RatePerHour: 3600, Burst: 100},
	}, nil, nil)

	ids := []string{"AP1", "AP2"}
	hears := map[string][]string{"AP1": {"AP2"}, "AP2": {"AP1"}}
	agents := map[string]*Agent{}
	for _, id := range ids {
		a, err := Dial(addr, Hello{APID: id, TxPowerDBm: 18})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[id] = a
		if err := a.SendReport(report(hears[id], 25, 22)); err != nil {
			t.Fatal(err)
		}
	}

	// Both agents must receive an assignment without anyone calling
	// Reallocate, and contending APs must not share spectrum.
	got := map[string]spectrum.Channel{}
	for id, a := range agents {
		got[id] = waitAssign(t, a)
	}
	if got["AP1"].Conflicts(got["AP2"]) {
		t.Fatalf("contending APs share spectrum: %v vs %v", got["AP1"], got["AP2"])
	}

	// One pass over AP1's report can assign both contending APs before
	// AP2's report is applied, and an agent can hold its assignment before
	// the consumer counts the pass: read the counters once they settle.
	st := s.StreamStats()
	deadline := time.Now().Add(5 * time.Second)
	for (st.Passes == 0 || st.Marks < 2 || vecSum(s.Obs, "acorn_ctlnet_stream_passes_total") == 0) &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = s.StreamStats()
	}
	if st.Passes == 0 {
		t.Errorf("no streaming pass ran: %+v", st)
	}
	if st.Marks < 2 {
		t.Errorf("marks = %d, want >= 2", st.Marks)
	}
	if n := vecSum(s.Obs, "acorn_ctlnet_stream_passes_total"); n == 0 {
		t.Error("acorn_ctlnet_stream_passes_total did not advance")
	}
}

// waitStream polls the stream stats until cond holds.
func waitStream(t *testing.T, s *Server, what string, cond func(ServerStreamStats) bool) ServerStreamStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.StreamStats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened: %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamPassBatchesWhileBusy pins the consumer's batching: with the
// pass mutex held, the consumer takes the first mark and waits on it, and
// marks that arrive meanwhile coalesce latest-wins per AP. Once the mutex
// is released, exactly one more pass drains every AP that queued behind
// the first one.
func TestStreamPassBatchesWhileBusy(t *testing.T) {
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = StreamConfig{Enabled: true, WatchdogPeriod: -1}
	s.Tracer = NewServerTracer(64, 1, nil)
	sayHello(s, "a", "x", "y")
	s.startStream()
	t.Cleanup(func() { _ = s.Close() })

	s.passMu.Lock()
	unlock := sync.OnceFunc(s.passMu.Unlock) // a failed check must not strand the consumer
	defer unlock()
	now := time.Now()
	applyReport(s, "a", 1, report(nil, 25), now)
	before := waitStream(t, s, "the consumer taking the first mark", func(st ServerStreamStats) bool {
		return st.Marks == 1 && st.DirtyDepth == 0
	})

	// The consumer now waits on the pass mutex. x reports three times
	// (each a changed measurement) and y once.
	for seq := uint64(1); seq <= 3; seq++ {
		applyReport(s, "x", seq, report(nil, 20+float64(seq)), now)
	}
	applyReport(s, "y", 1, report(nil, 30), now)
	busy := s.StreamStats()
	if got := busy.Coalesced - before.Coalesced; got != 2 {
		t.Fatalf("coalesced rose by %d while busy, want 2: %+v", got, busy)
	}
	if busy.DirtyDepth != 2 {
		t.Fatalf("dirty depth %d while busy, want 2 (x and y)", busy.DirtyDepth)
	}

	unlock()
	after := waitStream(t, s, "both passes", func(st ServerStreamStats) bool {
		return st.Passes >= before.Passes+2 && st.DirtyDepth == 0
	})
	if got := after.Passes - before.Passes; got != 2 {
		t.Fatalf("passes rose by %d, want 2 (the first AP, then x and y together)", got)
	}
	if after.Marks != 5 || after.Coalesced != 2 || after.Failed != 0 {
		t.Fatalf("marks %d coalesced %d failed %d, want 5, 2, 0", after.Marks, after.Coalesced, after.Failed)
	}
	var keys []string // newest first
	for _, sp := range s.Tracer.Snapshot(0) {
		if sp.Kind == "stream" {
			keys = append(keys, sp.Key)
		}
	}
	if len(keys) != 2 || keys[0] != "aps=2" || keys[1] != "aps=1" {
		t.Fatalf("stream pass spans %v (newest first), want [aps=2 aps=1]", keys)
	}
	if asg := s.Assignments(); len(asg) != 3 {
		t.Fatalf("assignments %v, want all three APs", asg)
	}
}

// TestFailedStreamPassEndsDrain: a pass that fails (here: its only report
// is past the TTL) requeues its AP with the original receipt stamp and
// ends the drain instead of retrying in a hot loop; the next mark retries
// it.
func TestFailedStreamPassEndsDrain(t *testing.T) {
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.ReportTTL = time.Minute
	s.Stream = StreamConfig{Enabled: true, WatchdogPeriod: -1} // tick every 1s
	sayHello(s, "a")
	s.startStream()
	t.Cleanup(func() { _ = s.Close() })

	old := time.Now().Add(-time.Hour)
	applyReport(s, "a", 1, report(nil, 25), old)
	waitStream(t, s, "the failed pass", func(st ServerStreamStats) bool {
		return st.Failed == 1 && st.DirtyDepth == 1
	})
	time.Sleep(50 * time.Millisecond) // well inside the 1s tick
	if st := s.StreamStats(); st.Failed != 1 || st.Passes != 0 {
		t.Fatalf("failed pass retried without a new mark: %+v", st)
	}
	s.stream.mu.Lock()
	earliest := s.stream.earliest
	s.stream.mu.Unlock()
	if !earliest.Equal(old) {
		t.Fatalf("requeued origin %v, want the original receipt %v", earliest, old)
	}

	applyReport(s, "a", 2, report(nil, 26), time.Now())
	waitStream(t, s, "the retry on the next mark", func(st ServerStreamStats) bool {
		return st.Passes == 1 && st.DirtyDepth == 0
	})
}

// assertServerSwitchRate checks the hard anti-flap guarantee on the gate's
// committed switch history: for every AP and every pair of switch times, the
// count inside the window never exceeds burst + rate·window.
func assertServerSwitchRate(t *testing.T, times map[string][]time.Time, ratePerHour float64, burst int) {
	t.Helper()
	for ap, ts := range times {
		for i := range ts {
			for j := i; j < len(ts); j++ {
				w := ts[j].Sub(ts[i])
				n := j - i + 1
				if lim := float64(burst) + ratePerHour*w.Hours(); float64(n) > lim+1e-9 {
					t.Fatalf("%s: %d switches in %v exceeds burst %d + rate %.1f/h",
						ap, n, w, burst, ratePerHour)
				}
			}
		}
	}
}

// TestStreamChaosStorm is the chaos acceptance run for the event-driven
// controller: three mutually contending reconnecting agents report through
// injected connection resets (>= 20% of connections), per-connection
// latency with jitter, short writes, and corruption, including a 10x report
// storm phase — while the server reallocates purely event-driven. After the
// injector is disabled the system must converge to a conflict-free
// assignment every agent holds, with the per-AP switch-rate bound intact
// and the dirty queue structurally bounded.
func TestStreamChaosStorm(t *testing.T) {
	const (
		ratePerHour = 1800.0 // 1 switch per 2s sustained
		burst       = 5
	)
	inj := faultnet.NewInjector(faultnet.Config{
		Seed:           11,
		ConnResetProb:  0.5,
		ResetAfterOps:  12,
		LatencyMin:     200 * time.Microsecond,
		LatencyMax:     time.Millisecond,
		Jitter:         500 * time.Microsecond,
		ShortWriteProb: 0.02,
		CorruptProb:    0.02,
	})
	s, addr := streamServer(t, StreamConfig{
		Enabled:        true,
		WatchdogPeriod: 2 * time.Second,
		Gate: core.GateOptions{
			RatePerHour: ratePerHour,
			Burst:       burst,
			FlapWindow:  time.Hour, // keep the whole switch history for the assert
		},
	}, inj, func(s *Server) {
		s.HelloTimeout = 300 * time.Millisecond
		s.PeerTimeout = 500 * time.Millisecond
		s.WriteTimeout = time.Second
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ids := []string{"AP1", "AP2", "AP3"}
	hears := map[string][]string{
		"AP1": {"AP2", "AP3"},
		"AP2": {"AP1", "AP3"},
		"AP3": {"AP1", "AP2"},
	}
	// interval is the reporting cadence, dropped 10x during the storm; while
	// storming, AP3's client SNRs toggle on alternate reports between
	// healthy and bonding-collapsed, so the allocator's width preference
	// flip-flaps and the search keeps proposing switches the gate must
	// suppress.
	var intervalMu sync.Mutex
	interval := 20 * time.Millisecond
	storming := false
	setPhase := func(d time.Duration, storm bool) {
		intervalMu.Lock()
		interval = d
		storming = storm
		intervalMu.Unlock()
	}
	getPhase := func() (time.Duration, bool) {
		intervalMu.Lock()
		defer intervalMu.Unlock()
		return interval, storming
	}

	agents := map[string]*ReconnectingAgent{}
	var wg sync.WaitGroup
	for i, id := range ids {
		ra, err := NewReconnectingAgent(ctx, addr, Hello{APID: id, TxPowerDBm: 18}, ReconnectOptions{
			Backoff: Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			Agent: AgentOptions{
				HeartbeatInterval: 20 * time.Millisecond,
				PeerTimeout:       500 * time.Millisecond,
				WriteTimeout:      500 * time.Millisecond,
			},
			Obs:  s.Obs,
			Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ra.Close()
		agents[id] = ra
		wg.Add(1)
		go func(id string, ra *ReconnectingAgent) {
			defer wg.Done()
			n := 0
			for {
				d, storm := getPhase()
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
					n++
					rep := report(hears[id], 25, 22)
					if storm && id == "AP3" && n%2 == 1 {
						// Bonding collapse: 20 MHz beats 40 for this view.
						rep = report(hears[id], -1.5, -1.0)
					}
					_ = ra.SendReport(rep)
				}
			}
		}(id, ra)
	}

	// Chaos phase 1: normal cadence under faults. Phase 2: 10x report storm
	// with a flip-flapping hear-graph.
	time.Sleep(800 * time.Millisecond)
	setPhase(2*time.Millisecond, true)
	stormUntil := time.Now().Add(800 * time.Millisecond)
	chaosCap := time.Now().Add(10 * time.Second)
	for time.Now().Before(stormUntil) {
		time.Sleep(50 * time.Millisecond)
	}
	setPhase(20*time.Millisecond, false)
	// Keep the chaos going until the reset quota is met.
	for {
		st := inj.Stats()
		if st.Resets > 0 && st.Resets*5 >= st.Conns && st.LatencyOps > 0 {
			break
		}
		if time.Now().After(chaosCap) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fst := inj.Stats()
	t.Logf("chaos stats: %+v", fst)
	if fst.Resets == 0 || fst.Resets*5 < fst.Conns {
		t.Fatalf("fewer than 20%% of connections reset: %+v", fst)
	}
	if fst.LatencyOps == 0 {
		t.Fatalf("latency injection never fired: %+v", fst)
	}

	// Calm the network; the stream must converge on its own (the watchdog's
	// periodic full pass re-pushes assignments to agents that missed one).
	inj.Disable()
	deadline := time.Now().Add(20 * time.Second)
	converged := false
	for time.Now().Before(deadline) {
		s.mu.Lock()
		want := make(map[string]spectrum.Channel, len(s.assign))
		for k, v := range s.assign {
			want[k] = v
		}
		s.mu.Unlock()
		if len(want) == len(ids) {
			ok := true
			for i := 0; i < len(ids) && ok; i++ {
				if agents[ids[i]].Current() != want[ids[i]] {
					ok = false
				}
				for j := i + 1; j < len(ids) && ok; j++ {
					if want[ids[i]].Conflicts(want[ids[j]]) {
						ok = false
					}
				}
			}
			if ok {
				converged = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := s.StreamStats()
	t.Logf("stream stats: %+v", st)
	if !converged {
		for id, ra := range agents {
			t.Logf("%s: current=%v connected=%v sessions=%d lastErr=%v",
				id, ra.Current(), ra.Connected(), ra.Sessions(), ra.LastErr())
		}
		t.Fatal("stream mode never converged after the chaos calmed")
	}
	cancel()
	wg.Wait()

	// The event path did the work: passes ran, and the dirty set never
	// outgrew the AP population (it is keyed by AP). Latest-wins coalescing
	// is checked deterministically by TestStreamPassBatchesWhileBusy.
	if st.Passes == 0 {
		t.Error("no streaming passes ran")
	}
	if st.DirtyDepth > len(ids) {
		t.Errorf("dirty depth %d exceeds AP count %d", st.DirtyDepth, len(ids))
	}
	if st.Marks < 100 {
		t.Errorf("marks = %d, want a storm's worth (>= 100)", st.Marks)
	}
	// The flip-flapping view made the search propose switches; the gate saw
	// them, and whatever it approved stayed inside the rate bound.
	if st.Gate.Proposals == 0 {
		t.Error("the storm never exercised the switch gate")
	}

	// Zero switch-rate violations, checked on the gate's committed history.
	assertServerSwitchRate(t, s.GateSwitchTimes(), ratePerHour, burst)
}

// TestServerGateStreakHysteresis drives the gated install path
// deterministically, without the consumer goroutine: a view change that
// makes the allocator want to move an already-assigned AP must survive K
// consecutive evaluations before the switch lands.
func TestServerGateStreakHysteresis(t *testing.T) {
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = StreamConfig{Enabled: true, Gate: core.GateOptions{
		Streak:      2,
		RatePerHour: 3600,
		Burst:       100,
		FlapWindow:  time.Hour,
	}}
	setReport := func(id string, rep Report) {
		s.mu.Lock()
		s.hellos[id] = Hello{APID: id, TxPowerDBm: 18}
		rep.APID = id
		s.reports[id] = storedReport{rep: rep, recv: time.Now()}
		s.mu.Unlock()
	}
	// Two mutually contending APs, initialized onto valid channels.
	setReport("AP1", report([]string{"AP2"}, 25, 22))
	setReport("AP2", report([]string{"AP1"}, 25, 22))
	first, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("want 2 assignments, got %v", first)
	}

	// Force a conflicting incumbent assignment — the state a flap or a bad
	// measurement epoch could have left behind. The allocator now wants to
	// move one AP off the shared channel.
	s.mu.Lock()
	s.assign["AP2"] = s.assign["AP1"]
	s.mu.Unlock()
	first["AP2"] = first["AP1"]

	// First streamed evaluation: the proposal is new, so the streak rule
	// vetoes it and the assignment must not move.
	second, err := s.reallocate(nil, false, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if second["AP1"] != first["AP1"] || second["AP2"] != first["AP2"] {
		t.Fatalf("switch landed before the streak was sustained: %v -> %v", first, second)
	}
	if st := s.StreamStats(); st.Gate.StreakVetoes == 0 {
		t.Fatalf("no streak veto recorded: %+v", st.Gate)
	}

	// Second consecutive evaluation of the same proposal: it commits, and
	// the contending APs separate.
	third, err := s.reallocate(nil, false, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if third["AP1"].Conflicts(third["AP2"]) {
		t.Fatalf("sustained proposal still not applied: %v", third)
	}
	st := s.StreamStats()
	if st.SwitchesApplied == 0 {
		t.Errorf("no gated switch recorded: %+v", st)
	}
	if counterValue(s.Obs, "acorn_ctlnet_stream_switch_vetoes_total") == 0 {
		t.Error("acorn_ctlnet_stream_switch_vetoes_total did not advance")
	}
}
