package ctlnet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
	"acorn/internal/spectrum"
)

// sayHello registers APs as known, as their sessions' hellos would.
func sayHello(s *Server, ids ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		s.hellos[id] = Hello{APID: id, TxPowerDBm: 18}
	}
}

// applyReport feeds one report through the shard apply path.
func applyReport(s *Server, apID string, seq uint64, rep Report, recv time.Time) {
	rep.APID = apID
	rep.Seq = seq
	s.applyReports([]reportEvent{{apID: apID, rep: rep, recv: recv}})
}

// captureAgent registers a session for apID whose outbox never starts its
// writer, so every push stays visible in the pending slot.
func captureAgent(s *Server, apID string) *outbox {
	ob := newOutbox(discardConn{}, 0, s.m().outm)
	ob.running = true
	s.mu.Lock()
	s.agents[apID] = &agentConn{conn: discardConn{}, ob: ob}
	s.mu.Unlock()
	return ob
}

// takePush reports whether a push waits in ob, and clears it.
func takePush(ob *outbox) bool {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	had := ob.hasAsg
	ob.hasAsg = false
	return had
}

// histogramCount reads a histogram's observation count and sum.
func histogramCount(reg *obs.Registry, name string) (uint64, float64) {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Count != nil {
			return *s.Count, *s.Sum
		}
	}
	return 0, 0
}

// randomHearGraph lays n APs out as cliques, one-sided chains, singletons
// and chains whose odd members never report (hello-only APs that others
// still hear), then points some hear lists at APs that never say hello. It
// returns every AP id and the hear list of each reporting AP.
func randomHearGraph(rng *rand.Rand, n int) ([]string, map[string][]string) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ap-%03d", i)
	}
	hears := map[string][]string{}
	perm := rng.Perm(n)
	for i := 0; i < n; {
		size := min(1+rng.Intn(6), n-i)
		group := make([]string, size)
		for k := range group {
			group[k] = ids[perm[i+k]]
		}
		i += size
		switch rng.Intn(4) {
		case 0: // clique
			for _, a := range group {
				for _, b := range group {
					if a != b {
						hears[a] = append(hears[a], b)
					}
				}
			}
		case 1: // chain: each AP lists only its successor
			for k, a := range group {
				hears[a] = nil
				if k+1 < size {
					hears[a] = []string{group[k+1]}
				}
			}
		case 2: // singletons
			for _, a := range group {
				hears[a] = nil
			}
		case 3: // chain through hello-only APs
			for k := 0; k < size; k += 2 {
				hears[group[k]] = nil
				if k+1 < size {
					hears[group[k]] = []string{group[k+1]}
				}
			}
		}
	}
	for k := 0; k < n/8; k++ {
		if id := ids[rng.Intn(n)]; hears[id] != nil {
			hears[id] = append(hears[id], fmt.Sprintf("ghost-%d", k))
		}
	}
	return ids, hears
}

// hearClosureOracle computes the hear-closure of only by scanning every
// stored report, symmetrizing and filtering exactly as buildView does.
func hearClosureOracle(s *Server, only map[string]bool) map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	adj := map[string][]string{}
	for ap, sr := range s.reports {
		if _, ok := s.hellos[ap]; !ok {
			continue
		}
		for _, o := range sr.rep.Hears {
			if _, ok := s.hellos[o]; ok {
				adj[ap] = append(adj[ap], o)
				adj[o] = append(adj[o], ap)
			}
		}
	}
	seen := map[string]bool{}
	var stack []string
	for ap := range only {
		if _, ok := s.hellos[ap]; ok && !seen[ap] {
			seen[ap] = true
			stack = append(stack, ap)
		}
	}
	for len(stack) > 0 {
		ap := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[ap] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return seen
}

// checkViewRestriction asserts that the view built from a pass's scope
// equals the whole view restricted to that scope: the same AP and client
// IDs in the same order, the same powers and calibrated walls, the same
// associations and the same contention pairs.
func checkViewRestriction(t *testing.T, s *Server, in passInput) {
	t.Helper()
	s.mu.Lock()
	hellos := make(map[string]Hello, len(s.hellos))
	for k, v := range s.hellos {
		hellos[k] = v
	}
	reports := make(map[string]Report, len(s.reports))
	for k, v := range s.reports {
		reports[k] = v.rep
	}
	s.mu.Unlock()
	whole, wcfg := buildView(hellos, reports)
	part, pcfg := buildView(in.hellos, in.reports)

	var wantAPs, gotAPs []string
	for _, ap := range whole.APs {
		if _, ok := in.hellos[ap.ID]; ok {
			wantAPs = append(wantAPs, ap.ID)
			if p := part.AP(ap.ID); p == nil || p.TxPower != ap.TxPower {
				t.Errorf("AP %s: scoped view lost it or its power", ap.ID)
			}
		}
	}
	for _, ap := range part.APs {
		gotAPs = append(gotAPs, ap.ID)
	}
	if !reflect.DeepEqual(gotAPs, wantAPs) {
		t.Fatalf("scoped view APs %v, want %v", gotAPs, wantAPs)
	}
	var wantClients, gotClients []string
	for _, c := range whole.Clients {
		if _, ok := in.hellos[wcfg.Assoc[c.ID]]; ok {
			wantClients = append(wantClients, c.ID)
			p := part.Client(c.ID)
			if p == nil || !reflect.DeepEqual(p.ExtraLoss, c.ExtraLoss) || pcfg.Assoc[c.ID] != wcfg.Assoc[c.ID] {
				t.Errorf("client %s: scoped wall or association differs", c.ID)
			}
		}
	}
	for _, c := range part.Clients {
		gotClients = append(gotClients, c.ID)
	}
	if !reflect.DeepEqual(gotClients, wantClients) {
		t.Fatalf("scoped view clients %v, want %v", gotClients, wantClients)
	}
	for _, a := range gotAPs {
		for _, b := range gotAPs {
			if part.ContendOverride(a, b) != whole.ContendOverride(a, b) {
				t.Errorf("contention %s-%s: scoped %v, whole %v", a, b,
					part.ContendOverride(a, b), whole.ContendOverride(a, b))
			}
		}
	}
}

// TestScopedPassIsolation drives scoped stream passes over random hear
// graphs and checks the four properties the scoping rests on: the scope is
// the hear-closure of the pass's eligible APs, its view is the whole view
// restricted to it, nothing outside it is reassigned or pushed, and the
// width gauges still count the whole assignment table.
func TestScopedPassIsolation(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewServer(seed)
			s.Obs = obs.NewRegistry()
			s.Stream = StreamConfig{Enabled: true, Gate: core.GateOptions{
				Margin: -1, Streak: 1, RatePerHour: 3600, Burst: 100,
			}}
			n := 60 + rng.Intn(141)
			ids, hears := randomHearGraph(rng, n)
			sayHello(s, ids...)
			outboxes := make(map[string]*outbox, n)
			for _, id := range ids {
				outboxes[id] = captureAgent(s, id)
			}
			seq := map[string]uint64{}
			send := func(id string, snrs ...float64) {
				seq[id]++
				applyReport(s, id, seq[id], report(hears[id], snrs...), time.Now())
			}
			var reporters []string
			for _, id := range ids {
				if _, ok := hears[id]; ok {
					reporters = append(reporters, id)
					send(id, 26+8*rng.Float64(), 26+8*rng.Float64())
				}
			}
			// Rewire some hear lists, so the maintained adjacency also
			// drops edges.
			for k := 0; k < n/10; k++ {
				id := reporters[rng.Intn(len(reporters))]
				hears[id] = nil
				if rng.Intn(2) == 0 {
					hears[id] = []string{ids[rng.Intn(n)]}
				}
				send(id, 30, 28)
			}
			s.takeDirty()
			if _, err := s.Reallocate(); err != nil {
				t.Fatal(err)
			}
			for _, ob := range outboxes {
				takePush(ob)
			}

			for trial := 0; trial < 6; trial++ {
				dirty := map[string]bool{}
				for k := rng.Intn(3); k >= 0; k-- {
					id := ids[rng.Intn(n)]
					if rng.Intn(8) == 0 {
						id = "ghost-dirty"
					}
					dirty[id] = true
					if _, ok := hears[id]; ok {
						// Bonding collapse: the AP now prefers 20 MHz.
						send(id, rng.Float64(), rng.Float64())
					}
				}
				s.takeDirty()
				only := s.hearNeighbourhood(dirty)
				if len(only) == 0 {
					continue
				}
				want := hearClosureOracle(s, only)
				in := s.snapshot(only)
				got := make(map[string]bool, len(in.hellos))
				for id := range in.hellos {
					got[id] = true
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: scope %v, want hear-closure %v", trial, sortedIDs(got), sortedIDs(want))
				}
				checkViewRestriction(t, s, in)

				before := s.Assignments()
				viewsBefore, apsBefore := histogramCount(s.Obs, "acorn_ctlnet_pass_view_aps")
				out, err := s.reallocate(only, false, obs.SpanRef{})
				if err != nil {
					t.Fatal(err)
				}
				after := s.Assignments()
				for id := range out {
					if !want[id] {
						t.Errorf("trial %d: pass assigned %s outside its scope", trial, id)
					}
				}
				for _, id := range ids {
					pushed := takePush(outboxes[id])
					if want[id] {
						continue
					}
					if after[id] != before[id] {
						t.Errorf("trial %d: %s outside the scope moved %v -> %v", trial, id, before[id], after[id])
					}
					if pushed {
						t.Errorf("trial %d: %s outside the scope got a push", trial, id)
					}
				}
				views, aps := histogramCount(s.Obs, "acorn_ctlnet_pass_view_aps")
				if views != viewsBefore+1 || int(aps-apsBefore) != len(want) {
					t.Errorf("trial %d: view histogram +%d passes, +%v APs; want +1, +%d",
						trial, views-viewsBefore, aps-apsBefore, len(want))
				}
				var w20, w40 uint64
				for _, ch := range after {
					switch ch.Width {
					case spectrum.Width20:
						w20++
					case spectrum.Width40:
						w40++
					}
				}
				g20 := counterValue(s.Obs, "acorn_core_cells_20mhz")
				g40 := counterValue(s.Obs, "acorn_core_cells_40mhz")
				if g20 != w20 || g40 != w40 || int(g20+g40) != len(after) {
					t.Errorf("trial %d: width gauges 20=%d 40=%d, table 20=%d 40=%d of %d assigned",
						trial, g20, g40, w20, w40, len(after))
				}
			}
		})
	}
}

func sortedIDs(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TestUnchangedReportsDoNotMark: a re-send whose measurements equal the
// stored report refreshes its sequence and receive time, and marks its AP
// only while the AP has no assignment; a changed report always marks.
func TestUnchangedReportsDoNotMark(t *testing.T) {
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = StreamConfig{Enabled: true}
	sayHello(s, "AP1", "AP2")
	t0 := time.Now()
	rep1 := report([]string{"AP2"}, 25, 22)
	applyReport(s, "AP1", 1, rep1, t0)
	applyReport(s, "AP2", 1, report([]string{"AP1"}, 25, 22), t0)
	// Unassigned, an unchanged re-send still marks: no decision exists yet.
	applyReport(s, "AP1", 2, rep1, t0)
	if st := s.StreamStats(); st.Marks != 3 {
		t.Fatalf("marks = %d before the first pass, want 3", st.Marks)
	}
	s.streamPass()
	if got := s.Assignments(); len(got) != 2 {
		t.Fatalf("first pass assigned %v", got)
	}

	t1 := t0.Add(time.Second)
	applyReport(s, "AP1", 3, rep1, t1)
	st := s.StreamStats()
	if st.Marks != 3 || st.DirtyDepth != 0 {
		t.Errorf("unchanged re-send marked its assigned AP: %+v", st)
	}
	s.mu.Lock()
	sr := s.reports["AP1"]
	s.mu.Unlock()
	if sr.rep.Seq != 3 || !sr.recv.Equal(t1) {
		t.Errorf("unchanged re-send stored seq %d recv %v, want 3 and %v", sr.rep.Seq, sr.recv, t1)
	}
	if n := counterValue(s.Obs, "acorn_ctlnet_reports_unchanged_total"); n != 2 {
		t.Errorf("acorn_ctlnet_reports_unchanged_total = %d, want 2", n)
	}

	applyReport(s, "AP1", 4, report([]string{"AP2"}, 25, 23), t1)
	if st := s.StreamStats(); st.Marks != 4 || st.DirtyDepth != 1 {
		t.Errorf("changed report did not mark: %+v", st)
	}
}

// TestUnchangedResendCommitsPendingSwitch: under the default two-evaluation
// streak, a switch vetoed on its first evaluation commits on the next
// unchanged re-send from the AP it moves, because the gate still holds the
// proposal pending.
func TestUnchangedResendCommitsPendingSwitch(t *testing.T) {
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = StreamConfig{Enabled: true, Gate: core.GateOptions{
		Streak:      2,
		RatePerHour: 3600,
		Burst:       100,
		FlapWindow:  time.Hour,
	}}
	sayHello(s, "AP1", "AP2")
	now := time.Now()
	reps := map[string]Report{
		"AP1": report([]string{"AP2"}, 25, 22),
		"AP2": report([]string{"AP1"}, 25, 22),
	}
	applyReport(s, "AP1", 1, reps["AP1"], now)
	applyReport(s, "AP2", 1, reps["AP2"], now)
	if _, err := s.Reallocate(); err != nil {
		t.Fatal(err)
	}
	s.takeDirty()
	// A conflicting incumbent: the search now wants one AP off the shared
	// channel.
	s.mu.Lock()
	s.install("AP2", s.assign["AP1"])
	s.mu.Unlock()

	reps["AP1"] = report([]string{"AP2"}, 25, 23)
	applyReport(s, "AP1", 2, reps["AP1"], now)
	s.streamPass()
	if asg := s.Assignments(); !asg["AP1"].Conflicts(asg["AP2"]) {
		t.Fatalf("switch landed on its first evaluation: %v", asg)
	}
	gate := s.stream.gate
	if !gate.Pending("AP1") && !gate.Pending("AP2") {
		t.Fatal("the vetoed proposal is not pending")
	}

	marks := s.StreamStats().Marks
	applyReport(s, "AP1", 3, reps["AP1"], now)
	applyReport(s, "AP2", 2, reps["AP2"], now)
	if got := s.StreamStats().Marks - marks; got != 1 {
		t.Fatalf("unchanged re-sends marked %d APs, want only the pending one", got)
	}
	s.streamPass()
	if asg := s.Assignments(); asg["AP1"].Conflicts(asg["AP2"]) {
		t.Fatalf("pending switch did not commit on the unchanged re-send: %v", asg)
	}
}

// TestReallocateSerializesWithStreamPasses hammers Reallocate while agents
// stream changing reports, so full and stream passes overlap constantly.
// After each round, once everything is quiet, every agent must hold exactly
// the controller's stored assignment: a stream pass that installed over a
// concurrent full pass without pushing would leave an agent on a channel
// the table no longer records. The watchdog is off, so nothing repairs such
// a split.
func TestReallocateSerializesWithStreamPasses(t *testing.T) {
	s, addr := streamServer(t, StreamConfig{
		Enabled:        true,
		WatchdogPeriod: -1,
		Gate:           core.GateOptions{Margin: -1, Streak: 1, RatePerHour: 1e6, Burst: 1e6},
	}, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two 4-AP cliques.
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, fmt.Sprintf("AP%d", i))
	}
	hears := map[string][]string{}
	for i, id := range ids {
		for j := i / 4 * 4; j < i/4*4+4; j++ {
			if j != i {
				hears[id] = append(hears[id], ids[j])
			}
		}
	}
	agents := map[string]*ReconnectingAgent{}
	for i, id := range ids {
		ra, err := NewReconnectingAgent(ctx, addr, Hello{APID: id, TxPowerDBm: 18}, ReconnectOptions{
			Backoff: Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			Agent: AgentOptions{
				HeartbeatInterval: 50 * time.Millisecond,
				PeerTimeout:       5 * time.Second,
				WriteTimeout:      time.Second,
			},
			Obs:  s.Obs,
			Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ra.Close()
		agents[id] = ra
	}

	for round := 0; round < 5; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string, ra *ReconnectingAgent) {
				defer wg.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
					}
					rep := report(hears[id], 30, 28)
					if (k+i)%2 == 1 {
						rep = report(hears[id], 0.5, 0.2) // bonding collapse
					}
					_ = ra.SendReport(rep)
				}
			}(i, id, agents[id])
		}
		var fulls int
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Reallocate(); err == nil {
					fulls++
				} else {
					time.Sleep(time.Millisecond) // no agent has said hello yet
				}
			}
		}()
		time.Sleep(200 * time.Millisecond)
		close(stop)
		wg.Wait()

		// Wait for the stream to go idle: no dirty AP and no new pass or
		// mark for a while.
		var last ServerStreamStats
		quietSince := time.Now()
		deadline := time.Now().Add(10 * time.Second)
		for time.Since(quietSince) < 100*time.Millisecond {
			if time.Now().After(deadline) {
				t.Fatal("stream never went idle")
			}
			st := s.StreamStats()
			if st.DirtyDepth > 0 || st.Marks != last.Marks || st.Passes != last.Passes {
				quietSince = time.Now()
			}
			last = st
			time.Sleep(10 * time.Millisecond)
		}
		if fulls == 0 || last.Passes == 0 {
			t.Fatalf("round %d: passes never overlapped: %d full, %d stream", round, fulls, last.Passes)
		}
		want := s.Assignments()
		if len(want) != len(ids) {
			t.Fatalf("round %d: assigned %d of %d APs", round, len(want), len(ids))
		}
		if !agentsMatch(agents, want, 2*time.Second) {
			for _, id := range ids {
				t.Logf("%s: agent %v, table %v", id, agents[id].Current(), want[id])
			}
			t.Fatalf("round %d: agents disagree with the stored assignment after overlapping passes", round)
		}
	}
}

// cliqueFleet gives a server n APs in 4-AP hear-cliques, each reporting two
// clients at 30 and 28 dB, with the state built directly (no sessions). It
// returns the AP IDs and the applied reports.
func cliqueFleet(s *Server, n int) ([]string, []Report) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ap-%05d", i)
	}
	sayHello(s, ids...)
	reps := make([]Report, n)
	batch := make([]reportEvent, n)
	now := time.Now()
	for i, id := range ids {
		var hears []string
		for p := i / 4 * 4; p < min(i/4*4+4, n); p++ {
			if p != i {
				hears = append(hears, ids[p])
			}
		}
		reps[i] = report(hears, 30, 28)
		reps[i].APID = id
		batch[i] = reportEvent{apID: id, rep: reps[i], recv: now}
		batch[i].rep.Seq = 1
	}
	s.applyReports(batch)
	return ids, reps
}

// benchmarkStreamPassScoped measures one flip plus one scoped stream pass
// on an n-AP fleet of 4-AP cliques: an AP's clients move between 40 and
// 20 MHz territory, and the pass re-solves its clique. The state is built
// directly, without sessions, so an op is the controller's own work; it
// should not grow with n.
func benchmarkStreamPassScoped(b *testing.B, n int) {
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = StreamConfig{Enabled: true, Gate: core.GateOptions{Margin: -1, Streak: 1}}
	ids, base := cliqueFleet(s, n)
	low := make([]Report, n)
	for i := range base {
		low[i] = report(base[i].Hears, 0.5, 0.2)
		low[i].APID = ids[i]
	}
	s.takeDirty()
	for lo := 0; lo < n; lo += 4 {
		only := map[string]bool{}
		for p := lo; p < min(lo+4, n); p++ {
			only[ids[p]] = true
		}
		if _, err := s.reallocate(only, false, obs.SpanRef{}); err != nil {
			b.Fatal(err)
		}
	}
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := k % n
		rep := low[i]
		if k/n%2 == 1 {
			rep = base[i]
		}
		if i == 0 {
			seq++
		}
		rep.Seq = seq
		s.applyReports([]reportEvent{{apID: ids[i], rep: rep, recv: time.Now()}})
		s.streamPass()
	}
}

func BenchmarkStreamPassScoped1k(b *testing.B)  { benchmarkStreamPassScoped(b, 1000) }
func BenchmarkStreamPassScoped10k(b *testing.B) { benchmarkStreamPassScoped(b, 10000) }

// benchmarkServerColdFullPass measures one full Reallocate on a fresh
// server holding an n-AP fleet of 4-AP cliques with two clients per AP:
// the cold pass a fleet boot or a watchdog runs. Building the server state
// is outside the timer, so ns/op and B/op are the pass's own.
func benchmarkServerColdFullPass(b *testing.B, n int) {
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		s := NewServer(1)
		s.Obs = obs.NewRegistry()
		cliqueFleet(s, n)
		b.StartTimer()
		if _, err := s.Reallocate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerColdFullPass1k(b *testing.B) { benchmarkServerColdFullPass(b, 1000) }
func BenchmarkServerColdFullPass2k(b *testing.B) { benchmarkServerColdFullPass(b, 2000) }
