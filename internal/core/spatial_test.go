package core

// Equivalence suite for the spatial-index conflict-graph build (spatial.go,
// geo.Grid) and the incrementally maintained contention partition
// (partition.go). The contract everywhere is exactness, not approximation:
// the indexed build must produce neighbor lists and component partitions
// bit-identical to the O(P²) full scan on every geometry — including the
// adversarial ones (clusters denser than a grid cell, colinear layouts that
// stress one grid axis, every AP at one point so a single cell holds the
// whole network) — and the maintained partition must equal a from-scratch
// component decomposition after every kind of churn the engine supports.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"acorn/internal/rf"
	"acorn/internal/stats"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// geomNetwork builds an nAP-AP network in the named layout with clients
// scattered near APs and heterogeneous transmit powers (directional
// carrier sense exercises the lower-index-transmits convention).
func geomNetwork(layout string, nAP, clientsPer int, seed int64) (*wlan.Network, []*wlan.Client) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]rf.Point, nAP)
	switch layout {
	case "uniform":
		for i := range pos {
			pos[i] = rf.Point{X: rng.Float64() * 2500, Y: rng.Float64() * 2500}
		}
	case "clustered":
		// A handful of dense clusters far apart: many points per grid cell
		// inside a cluster, empty cells between them.
		nClusters := 4
		for i := range pos {
			c := i % nClusters
			cx, cy := float64(c%2)*3000, float64(c/2)*3000
			pos[i] = rf.Point{X: cx + rng.Float64()*40, Y: cy + rng.Float64()*40}
		}
	case "colinear":
		for i := range pos {
			pos[i] = rf.Point{X: rng.Float64()*4000 - 2000, Y: 0}
		}
	case "coincident":
		for i := range pos {
			pos[i] = rf.Point{X: -123.25, Y: 77.5}
		}
	default:
		panic("unknown layout " + layout)
	}
	aps := make([]*wlan.AP, nAP)
	var clients []*wlan.Client
	for i := range aps {
		aps[i] = &wlan.AP{
			ID:      fmt.Sprintf("ap%04d", i),
			Pos:     pos[i],
			TxPower: units.DBm(12 + i%9), // heterogeneous powers: directional CS
		}
		for k := 0; k < clientsPer; k++ {
			clients = append(clients, &wlan.Client{
				ID: fmt.Sprintf("u%05d", i*clientsPer+k),
				Pos: rf.Point{
					X: pos[i].X + (rng.Float64()-0.5)*60,
					Y: pos[i].Y + (rng.Float64()-0.5)*60,
				},
			})
		}
	}
	return wlan.NewNetwork(aps, clients), clients
}

// geomSetup associates most clients (some to far APs, some left out, so the
// populated set is a strict subset and client-mediated edges exist).
func geomSetup(t *testing.T, layout string, nAP, clientsPer int, seed int64) (*wlan.Network, *wlan.Config) {
	t.Helper()
	n, clients := geomNetwork(layout, nAP, clientsPer, seed)
	cfg := wlan.NewConfig()
	rng := stats.NewRand(seed)
	RandomInitial(n, cfg, rng.Intn)
	for i, c := range clients {
		switch i % 7 {
		case 6:
			// unassociated
		default:
			cfg.SetAssoc(c.ID, n.APs[(i+i/3)%len(n.APs)].ID)
		}
	}
	return n, cfg
}

// TestSpatialGraphEquivalence pins the tentpole contract: for every layout,
// the spatial-index build's neighbor lists, component partition, and
// allocState adjacency are identical to the noSpatialIndex full scan, for
// every worker count, and the pair-scan accounting is conserved
// (scanned + pruned = P·(P−1)/2).
func TestSpatialGraphEquivalence(t *testing.T) {
	layouts := []string{"uniform", "clustered", "colinear", "coincident"}
	for _, layout := range layouts {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", layout, seed), func(t *testing.T) {
				n, cfg := geomSetup(t, layout, 60, 2, seed)
				ref := buildConflictGraph(n, cfg, 1, AllocOptions{noSpatialIndex: true})
				if ref.spatial {
					t.Fatal("noSpatialIndex build claims spatial")
				}
				for _, workers := range []int{1, 2, 8} {
					g := buildConflictGraph(n, cfg, workers, AllocOptions{})
					if !g.spatial {
						t.Fatalf("workers=%d: spatial path did not engage", workers)
					}
					if !reflect.DeepEqual(g.neighbors, ref.neighbors) {
						t.Fatalf("workers=%d: neighbor lists diverge from full scan", workers)
					}
					if !reflect.DeepEqual(g.comps, ref.comps) {
						t.Fatalf("workers=%d: components diverge from full scan", workers)
					}
					if total := totalPairs(len(g.popIdx)); g.pairsScanned+g.pairsPruned != total {
						t.Fatalf("workers=%d: scanned %d + pruned %d != %d pairs",
							workers, g.pairsScanned, g.pairsPruned, total)
					}
				}

				stRef := newAllocState(n, cfg, NewEstimator(n), AllocOptions{noSpatialIndex: true})
				st := newAllocState(n, cfg, NewEstimator(n), AllocOptions{})
				if !st.spatial {
					t.Fatal("allocState spatial path did not engage")
				}
				if !reflect.DeepEqual(st.neighbors, stRef.neighbors) {
					t.Fatal("allocState adjacency diverges from full scan")
				}
				if !reflect.DeepEqual(st.comps, stRef.comps) {
					t.Fatal("allocState components diverge from full scan")
				}
			})
		}
	}
}

// TestSpatialGridCellOverride pins that a custom grid cell size changes
// nothing but the bucketing: results stay identical to the full scan.
func TestSpatialGridCellOverride(t *testing.T) {
	n, cfg := geomSetup(t, "uniform", 50, 2, 9)
	ref := buildConflictGraph(n, cfg, 1, AllocOptions{noSpatialIndex: true})
	for _, cell := range []float64{7, 150, 1e6} {
		g := buildConflictGraph(n, cfg, 1, AllocOptions{gridCellM: cell})
		if !g.spatial {
			t.Fatalf("cell=%g: spatial path did not engage", cell)
		}
		if !reflect.DeepEqual(g.neighbors, ref.neighbors) || !reflect.DeepEqual(g.comps, ref.comps) {
			t.Fatalf("cell=%g: indexed build diverges from full scan", cell)
		}
	}
}

// TestSpatialOverrideDispatch pins the fallback contract: a contention
// override disables the spatial candidate pass (verdicts are not geometric)
// and both the graph build and the association engine take the exact full
// scan, with identical results to a non-indexed build.
func TestSpatialOverrideDispatch(t *testing.T) {
	n, cfg := geomSetup(t, "uniform", 40, 2, 4)
	n.ContendOverride = func(a, b string) bool { return (len(a)+len(b))%2 == 0 || a < b }
	if rows, _, ok := spatialCandidates(n, []int{0, 1}, make([][]*wlan.Client, len(n.APs)), AllocOptions{}); ok || rows != nil {
		t.Fatal("spatialCandidates accepted an overridden network")
	}
	g := buildConflictGraph(n, cfg, 2, AllocOptions{})
	ref := buildConflictGraph(n, cfg, 1, AllocOptions{noSpatialIndex: true})
	if g.spatial {
		t.Fatal("spatial path engaged under a contention override")
	}
	if !reflect.DeepEqual(g.neighbors, ref.neighbors) || !reflect.DeepEqual(g.comps, ref.comps) {
		t.Fatal("override build diverges")
	}
	e := newAssocEngine(n, cfg)
	if e == nil {
		t.Fatal("engine rejected override fixture")
	}
	if e.buildApapSpatial() {
		t.Fatal("buildApapSpatial accepted an overridden network")
	}
}

// TestSpatialNoInvertibleBound pins the other fallback: a degenerate
// propagation model (non-positive exponent ⇒ no monotone distance bound)
// must route both builders to the full scan.
func TestSpatialNoInvertibleBound(t *testing.T) {
	n, cfg := geomSetup(t, "uniform", 30, 1, 5)
	n.Prop.Exponent = 0
	g := buildConflictGraph(n, cfg, 1, AllocOptions{})
	if g.spatial {
		t.Fatal("spatial path engaged without an invertible propagation bound")
	}
	ref := buildConflictGraph(n, cfg, 1, AllocOptions{noSpatialIndex: true})
	if !reflect.DeepEqual(g.neighbors, ref.neighbors) {
		t.Fatal("degenerate-model build diverges")
	}
}

// partitionOracle rebuilds components from scratch off the live (n, cfg).
func partitionOracle(n *wlan.Network, cfg *wlan.Config) [][]int32 {
	return buildConflictGraph(n, cfg, 1, AllocOptions{noSpatialIndex: true}).comps
}

// TestPartitionTracksChurn drives the association engine through every
// mutation it supports — admissions, roams, evictions, reincarnations with
// new geometry — and checks after each step that the incrementally
// maintained partition equals a from-scratch component decomposition of the
// current configuration (invariant I3 of partition.go).
func TestPartitionTracksChurn(t *testing.T) {
	for _, layout := range []string{"uniform", "clustered"} {
		t.Run(layout, func(t *testing.T) {
			n, clients := geomNetwork(layout, 40, 3, 11)
			cfg := wlan.NewConfig()
			rng := stats.NewRand(11)
			RandomInitial(n, cfg, rng.Intn)
			e := newAssocEngine(n, cfg)
			if e == nil {
				t.Fatal("engine rejected fixture")
			}
			h := e.partitionHandle()
			if !h.validFor(n, cfg) {
				t.Fatal("fresh handle invalid")
			}

			check := func(step string) {
				t.Helper()
				got := h.components()
				want := partitionOracle(n, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: partition %v, oracle %v", step, got, want)
				}
			}
			check("initial (all unassociated)")

			r := rand.New(rand.NewSource(99))
			ids := make([]string, len(clients))
			// Admit everyone through the engine.
			for i, u := range clients {
				ids[i] = u.ID
				st := e.ensureState(u)
				if len(st.cands) > 0 {
					e.applyHome(u.ID, st, int(st.cands[r.Intn(len(st.cands))]))
				}
			}
			check("after admissions")

			for step := 0; step < 200; step++ {
				id := ids[r.Intn(len(ids))]
				u := n.Client(id) // the incarnation the oracle sees
				st := e.clients[id]
				switch op := r.Intn(10); {
				case op < 5: // roam (possibly to the same AP, possibly out)
					if st == nil {
						continue
					}
					target := -1
					if len(st.cands) > 0 && r.Intn(5) > 0 {
						target = int(st.cands[r.Intn(len(st.cands))])
					}
					e.applyHome(id, st, target)
				case op < 7: // evict
					if !e.evict(id) {
						t.Fatal("evict invariant breach")
					}
				case op < 9: // reincarnate with new geometry, then re-admit
					moved := &wlan.Client{ID: id, Pos: rf.Point{
						X: u.Pos.X + (r.Float64()-0.5)*800,
						Y: u.Pos.Y + (r.Float64()-0.5)*800,
					}}
					n.RemoveClient(id)
					n.Clients = append(n.Clients, moved)
					stNew := e.ensureState(moved)
					if len(stNew.cands) > 0 {
						e.applyHome(id, stNew, int(stNew.cands[0]))
					}
				default: // unassociate without eviction
					if st != nil {
						e.applyHome(id, st, -1)
					}
				}
				if step%10 == 0 || step > 190 {
					check(fmt.Sprintf("step %d", step))
				}
			}
			if e.stats.partRebuilds != 1 {
				t.Fatalf("churn performed %d partition rebuilds, want exactly the build-time one", e.stats.partRebuilds)
			}
			if e.stats.partUpdates == 0 {
				t.Fatal("no incremental partition updates recorded")
			}
		})
	}
}

// TestPartitionHandleValidity pins the handle's guard conditions: a handle
// must refuse to serve a different network, a different configuration, or a
// changed AP set.
func TestPartitionHandleValidity(t *testing.T) {
	n, cfg := geomSetup(t, "uniform", 10, 1, 2)
	e := newAssocEngine(n, cfg)
	if e == nil {
		t.Fatal("engine rejected fixture")
	}
	h := e.partitionHandle()
	if !h.validFor(n, cfg) {
		t.Fatal("handle invalid for its own binding")
	}
	if h.validFor(n, cfg.Clone()) {
		t.Fatal("handle accepted a cloned configuration")
	}
	n2, cfg2 := geomSetup(t, "uniform", 10, 1, 3)
	if h.validFor(n2, cfg2) {
		t.Fatal("handle accepted a different network")
	}
	var nilH *ContentionPartition
	if nilH.validFor(n, cfg) {
		t.Fatal("nil handle claims validity")
	}
	n.APs = n.APs[:len(n.APs)-1]
	if h.validFor(n, cfg) {
		t.Fatal("handle accepted a shrunk AP set")
	}
}

// TestClientChurnZeroPartitionRebuilds is the PR's acceptance pin: a stream
// of client-only churn (arrivals, reports, departures) must drive the
// reallocation path entirely off the maintained partition — the rebuild
// counter stays at the single engine-build rebuild while updates and
// partition reuses advance.
func TestClientChurnZeroPartitionRebuilds(t *testing.T) {
	ctrl, n := streamFixture(t, 16, 21)
	ctrl.Alloc.ShardWorkers = 2
	ctrl.Alloc.MaxPeriods = 1
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now, Gate: GateOptions{Streak: 1}, Alloc: ctrl.Alloc})

	for i := 0; i < 48; i++ {
		s.Offer(Event{Kind: EventArrive, Client: clientNear(n, i, fmt.Sprintf("u%03d", i))})
		if i%6 == 5 {
			s.Pump()
			vc.advance(200 * time.Millisecond)
		}
	}
	for i := 0; i < 120; i++ {
		switch i % 8 {
		case 0:
			s.Offer(Event{Kind: EventDepart, ClientID: fmt.Sprintf("u%03d", i%48)})
		case 1:
			s.Offer(Event{Kind: EventArrive, Client: clientNear(n, i, fmt.Sprintf("u%03d", i%48))})
		default:
			s.Offer(Event{Kind: EventReport, Client: clientNear(n, 2*i, fmt.Sprintf("u%03d", (i+1)%48))})
		}
		if i%5 == 4 {
			s.Pump()
			vc.advance(200 * time.Millisecond)
		}
	}
	for s.Pump() > 0 {
	}
	ctrl.publishEngineStats()

	reg := ctrl.registry()
	rebuilds := reg.Counter("acorn_core_partition_rebuilds_total", "").Value()
	updates := reg.Counter("acorn_core_partition_updates_total", "").Value()
	reuses := reg.Counter("acorn_core_alloc_partition_reuses_total", "").Value()
	builds := reg.Counter("acorn_core_assoc_engine_builds_total", "").Value()
	if rebuilds != builds {
		t.Fatalf("partition rebuilds %d != engine builds %d: client churn forced full recomputes", rebuilds, builds)
	}
	if builds != 1 {
		t.Fatalf("client-only churn rebuilt the engine %d times, want 1", builds)
	}
	if updates == 0 {
		t.Fatal("no incremental partition updates under churn")
	}
	if reuses == 0 {
		t.Fatal("no reallocation reused the maintained partition")
	}
	if st := s.Stats(); st.NoopSkips != 0 && st.LocalReopts == 0 {
		t.Fatalf("inconsistent stream accounting: %+v", st)
	}
}

// TestPartitionReuseMatchesGraphBuild pins that a sharded solve fed by the
// maintained partition installs exactly the channels a graph-building solve
// would: same components ⇒ same subproblems ⇒ bit-identical merge.
func TestPartitionReuseMatchesGraphBuild(t *testing.T) {
	n, clients := geomNetwork("uniform", 30, 2, 7)
	cfg := wlan.NewConfig()
	rng := stats.NewRand(7)
	RandomInitial(n, cfg, rng.Intn)
	e := newAssocEngine(n, cfg)
	if e == nil {
		t.Fatal("engine rejected fixture")
	}
	for _, u := range clients {
		st := e.ensureState(u)
		if len(st.cands) > 0 {
			e.applyHome(u.ID, st, int(st.cands[0]))
		}
	}
	opts := AllocOptions{ShardWorkers: 2, MaxPeriods: 2, MaxSwitchesPerPeriod: 4}
	est := NewEstimator(n)
	refOut, refSt := AllocateChannels(n, cfg, est, opts)
	if refSt.PartitionReused {
		t.Fatal("reference run unexpectedly reused a partition")
	}
	opts.Partition = e.partitionHandle()
	out, st := AllocateChannels(n, cfg, est, opts)
	if !st.PartitionReused {
		t.Fatal("partition handle was valid but not reused")
	}
	if !reflect.DeepEqual(out.Channels, refOut.Channels) {
		t.Fatal("partition-reusing solve installed different channels")
	}
	if st.GraphComponents != refSt.GraphComponents || st.FinalEstimate != refSt.FinalEstimate {
		t.Fatalf("solve stats diverge: %+v vs %+v", st, refSt)
	}
}

// TestStreamNoopFastPath pins the no-op satellite: a same-incarnation
// report that keeps its association skips re-optimization and is counted;
// a new incarnation (fresh geometry) at the same AP still re-optimizes.
func TestStreamNoopFastPath(t *testing.T) {
	ctrl, n := streamFixture(t, 8, 3)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now, RecordLatencies: 64})

	u := clientNear(n, 0, "u1")
	s.Offer(Event{Kind: EventArrive, Client: u})
	s.Pump()
	base := s.Stats()

	// Same pointer, stable association: pure no-op.
	s.Offer(Event{Kind: EventReport, Client: u})
	s.Pump()
	st := s.Stats()
	if st.NoopSkips != base.NoopSkips+1 {
		t.Fatalf("no-op report not skipped: %+v", st)
	}
	if st.LocalReopts != base.LocalReopts {
		t.Fatalf("no-op report still re-optimized: %+v", st)
	}
	if st.NoopLatencyCount != 1 {
		t.Fatalf("no-op latency ring holds %d samples, want 1", st.NoopLatencyCount)
	}

	// New incarnation at the same position: association may stay, but the
	// geometry refresh must re-optimize (hearing sets could have changed).
	u2 := clientNear(n, 0, "u1")
	s.Offer(Event{Kind: EventReport, Client: u2})
	s.Pump()
	st2 := s.Stats()
	if st2.NoopSkips != st.NoopSkips {
		t.Fatalf("geometry-refresh report wrongly treated as no-op: %+v", st2)
	}
	if st2.LocalReopts != st.LocalReopts+1 {
		t.Fatalf("geometry-refresh report did not re-optimize: %+v", st2)
	}

	mReg := ctrl.registry()
	if v := mReg.Counter("acorn_core_stream_noop_skips_total", "").Value(); v != st2.NoopSkips {
		t.Fatalf("metric %d != stats %d", v, st2.NoopSkips)
	}
}
