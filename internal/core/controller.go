package core

import (
	"fmt"
	"time"

	"acorn/internal/obs"
	"acorn/internal/ratecontrol"
	"acorn/internal/spectrum"
	"acorn/internal/stats"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// DefaultPeriod is the channel (re)allocation period T. Section 4.2 derives
// it from the CRAWDAD association-duration trace: the median association
// lasts ≈31 minutes and >90% last under 40, so ACORN re-runs allocation
// every 30 minutes.
const DefaultPeriod = 30 * time.Minute

// Controller is the ACORN auto-configuration engine for one WLAN. It owns
// the running configuration and applies the paper's workflow: random
// initial channels, Algorithm 1 as clients arrive, Algorithm 2 every period.
type Controller struct {
	Network *wlan.Network
	// Period is the channel-allocation periodicity; zero means
	// DefaultPeriod. Simulations invoke Reallocate directly, so Period
	// is advisory metadata for deployments driving the controller from a
	// timer.
	Period time.Duration
	// Alloc tunes Algorithm 2.
	Alloc AllocOptions
	// Assoc tunes the engine-backed Algorithm 1 paths (parallel roaming
	// sweeps).
	Assoc AssocOptions
	// Seed drives the random initial channel assignment.
	Seed int64
	// Obs receives reallocation metrics; nil means obs.Default.
	Obs *obs.Registry
	// Trace, when non-nil, receives a replayable JSONL convergence trace
	// of every Reallocate.
	Trace *TraceWriter

	cfg *wlan.Config

	// engine is the lazily built incremental association engine
	// (assocstate.go). Every association path consults engineFor, which
	// rebuilds or drops it as the binding evolves; a nil engine means the
	// reference path, which is always correct. engineOff latches an
	// unrepresentable binding until the next reallocation changes it.
	engine    *assocEngine
	engineOff bool
	// enginePub is the watermark of engine stats already published to Obs.
	enginePub assocEngineStats
}

// NewController creates a controller with a random initial channel
// assignment and no associations.
func NewController(n *wlan.Network, seed int64) (*Controller, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid network: %w", err)
	}
	c := &Controller{Network: n, Period: DefaultPeriod, Seed: seed, cfg: wlan.NewConfig()}
	rng := stats.NewRand(seed)
	RandomInitial(n, c.cfg, rng.Intn)
	return c, nil
}

// Config returns the controller's current configuration. The returned value
// is a clone; mutating it does not affect the controller.
func (c *Controller) Config() *wlan.Config { return c.cfg.Clone() }

// ConfigView returns the live configuration without copying. Callers must
// treat it as read-only; it is intended for evaluation loops (e.g. the
// churn simulator) where per-event cloning would dominate.
func (c *Controller) ConfigView() *wlan.Config { return c.cfg }

// registry returns the controller's metric registry (obs.Default when unset).
func (c *Controller) registry() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default
}

// engineFor returns the incremental association engine for the current
// binding, building or rebuilding it as needed, or nil when the binding is
// unrepresentable (callers then run the reference path).
func (c *Controller) engineFor() *assocEngine {
	if c.engineOff {
		return nil
	}
	if c.engine != nil && c.engine.bind(c.cfg) {
		return c.engine
	}
	c.publishEngineStats() // flush the outgoing engine's counters
	c.engine = newAssocEngine(c.Network, c.cfg)
	c.enginePub = assocEngineStats{}
	if c.engine == nil {
		c.engineOff = true
		c.registry().Counter("acorn_core_assoc_engine_fallbacks_total",
			"bindings the association engine could not represent (reference path used)").Inc()
		return nil
	}
	c.registry().Counter("acorn_core_assoc_engine_builds_total",
		"association engine (re)builds").Inc()
	return c.engine
}

// publishEngineStats pushes the engine's counter deltas since the last
// publication into the registry.
func (c *Controller) publishEngineStats() {
	e := c.engine
	if e == nil || e.stats == c.enginePub {
		return
	}
	reg := c.registry()
	cur := e.stats
	reg.Counter("acorn_core_assoc_updates_total",
		"O(1) aggregate updates applied by the association engine").Add(uint64(cur.updates - c.enginePub.updates))
	reg.Counter("acorn_core_assoc_fast_beacons_total",
		"modified beacons produced by the association engine").Add(uint64(cur.fastBeacons - c.enginePub.fastBeacons))
	reg.Counter("acorn_core_assoc_delay_memo_hits_total",
		"beacon delay lookups served from the engine memo").Add(uint64(cur.memoHits - c.enginePub.memoHits))
	reg.Counter("acorn_core_assoc_delay_memo_misses_total",
		"beacon delay lookups computed and memoized").Add(uint64(cur.memoMisses - c.enginePub.memoMisses))
	reg.Counter("acorn_core_partition_updates_total",
		"incremental contention-partition hook updates applied by the association engine").Add(uint64(cur.partUpdates - c.enginePub.partUpdates))
	reg.Counter("acorn_core_partition_refreshes_total",
		"lazy dirty-group re-partitions of the maintained contention partition").Add(uint64(cur.partRefreshes - c.enginePub.partRefreshes))
	reg.Counter("acorn_core_partition_rebuilds_total",
		"from-scratch contention-partition constructions (one per engine build)").Add(uint64(cur.partRebuilds - c.enginePub.partRebuilds))
	c.enginePub = cur
}

// Evict removes a departed client's association. Unknown IDs are a no-op.
func (c *Controller) Evict(clientID string) {
	if e := c.engineFor(); e != nil {
		if e.evict(clientID) {
			return
		}
		// Invariant breach (an associated client the engine never saw):
		// fall back and rebuild on next use.
		c.engine = nil
	}
	c.cfg.Unassoc(clientID)
}

// Admit runs Algorithm 1 for one client and applies the decision. It
// returns the decision; a decision with empty APID means the client is out
// of range of every AP.
func (c *Controller) Admit(u *wlan.Client) AssociationDecision {
	span := c.registry().Histogram("acorn_core_admit_seconds",
		"wall time of one Algorithm-1 admission", nil).Start()
	defer span.End()
	if e := c.engineFor(); e != nil {
		d := e.associate(u)
		if d.APID != "" {
			e.applyHome(u.ID, e.clients[u.ID], e.apIdx[d.APID])
		}
		return d
	}
	d := Associate(c.Network, c.cfg, u)
	if d.APID != "" {
		c.cfg.SetAssoc(u.ID, d.APID)
	}
	return d
}

// AdmitAll admits the given clients one by one in order.
func (c *Controller) AdmitAll(clients []*wlan.Client) []AssociationDecision {
	ds := make([]AssociationDecision, 0, len(clients))
	for _, u := range clients {
		ds = append(ds, c.Admit(u))
	}
	return ds
}

// Reallocate runs Algorithm 2 against fresh link measurements and installs
// the resulting channel assignment. It returns the search statistics, and
// emits them as metrics (and, when Trace is set, as a JSONL convergence
// trace).
func (c *Controller) Reallocate() AllocStats {
	reg := c.Obs
	if reg == nil {
		reg = obs.Default
	}
	span := reg.Histogram("acorn_core_reallocate_seconds",
		"wall time of one Algorithm-2 channel reallocation", nil).Start()
	// The association engine shares its link caches with the allocator:
	// a vended estimator reuses the measured reference SNRs and the
	// per-(link, width) delay memo across reallocations (same float
	// expressions as NewEstimator, so allocations are unchanged). The
	// engine's incrementally maintained contention partition rides along so
	// a sharded solve skips the graph build entirely.
	var est *Estimator
	opts := c.Alloc
	if e := c.engineFor(); e != nil {
		est = e.vendEstimator()
		opts.Partition = e.partitionHandle()
	} else {
		est = NewEstimator(c.Network)
	}
	next, st := AllocateChannels(c.Network, c.cfg, est, opts)
	c.cfg = next
	// New channels may make a previously unrepresentable binding
	// representable again; let the next association path retry the engine.
	c.engineOff = false
	span.End()
	RecordAllocMetrics(reg, st, c.cfg)
	reg.Gauge("acorn_core_clients_associated",
		"clients currently holding an association").Set(float64(len(c.cfg.Assoc)))
	if c.Trace != nil {
		c.Trace.Reallocation(st, c.cfg)
	}
	return st
}

// RecordAllocMetrics publishes one Algorithm-2 run's statistics into reg.
// It is shared by the local Controller and the networked ctlnet server so
// both surfaces report the same convergence metric catalog.
func RecordAllocMetrics(reg *obs.Registry, st AllocStats, cfg *wlan.Config) {
	reg.Counter("acorn_core_reallocations_total",
		"Algorithm-2 runs completed").Inc()
	reg.Counter("acorn_core_alloc_switches_total",
		"channel switches performed across all reallocations").Add(uint64(st.Switches))
	reg.Counter("acorn_core_alloc_periods_total",
		"greedy periods executed across all reallocations").Add(uint64(st.Periods))
	reg.Histogram("acorn_core_alloc_switches", "channel switches per reallocation",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64}).Observe(float64(st.Switches))
	reg.Gauge("acorn_core_goodput_initial_mbps",
		"estimated aggregate goodput before the last reallocation").Set(st.InitialEstimate)
	reg.Gauge("acorn_core_goodput_mbps",
		"estimated aggregate goodput after the last reallocation").Set(st.FinalEstimate)
	if st.InitialEstimate > 0 {
		reg.Gauge("acorn_core_goodput_gain_ratio",
			"final/initial estimated goodput of the last reallocation").
			Set(st.FinalEstimate / st.InitialEstimate)
	}
	reg.Counter("acorn_core_alloc_rank_evals_total",
		"per-AP rank evaluations performed across all reallocations").Add(uint64(st.Evals.RankEvals))
	reg.Counter("acorn_core_alloc_rank_cache_hits_total",
		"rank evaluations skipped by the dirty-rank cache").Add(uint64(st.Evals.RankCacheHits))
	reg.Counter("acorn_core_alloc_delta_evals_total",
		"candidate channels priced by incremental delta evaluation").Add(uint64(st.Evals.DeltaEvals))
	reg.Counter("acorn_core_alloc_full_evals_total",
		"candidate channels priced by full-network re-evaluation (generic path)").Add(uint64(st.Evals.FullEvals))
	reg.Counter("acorn_core_alloc_cell_recomputes_total",
		"per-cell throughput recomputations inside delta evaluations").Add(uint64(st.Evals.CellRecomputes))
	if scans := st.Evals.RankEvals + st.Evals.RankCacheHits; scans > 0 {
		reg.Gauge("acorn_core_alloc_rank_cache_hit_ratio",
			"fraction of rank lookups served from the dirty-rank cache in the last reallocation").
			Set(float64(st.Evals.RankCacheHits) / float64(scans))
	}
	if st.Fallback {
		reg.Counter("acorn_core_alloc_fallbacks_total",
			"Algorithm-2 runs (or sharded components) priced by the generic reference path instead of the incremental engine").Inc()
	}
	reg.Gauge("acorn_core_alloc_spectrum_components",
		"distinct 20 MHz components the engine assigned mask bits to in the last reallocation").
		Set(float64(st.SpectrumComponents))
	if st.GraphComponents > 0 {
		reg.Gauge("acorn_core_alloc_graph_components",
			"connected components of the populated contention graph in the last reallocation").
			Set(float64(st.GraphComponents))
		reg.Gauge("acorn_core_alloc_largest_component_aps",
			"populated APs in the largest contention component of the last reallocation").
			Set(float64(st.LargestComponent))
	}
	reg.Counter("acorn_core_graph_pairs_scanned_total",
		"AP pairs tested by the exact contention predicate during conflict-graph builds").Add(uint64(st.GraphPairsScanned))
	reg.Counter("acorn_core_graph_pairs_pruned_total",
		"AP pairs proven non-contending by the spatial index without an exact test").Add(uint64(st.GraphPairsPruned))
	if st.SpatialIndex {
		reg.Counter("acorn_core_graph_spatial_builds_total",
			"conflict-graph builds that ran on spatial-index candidates instead of the full pair scan").Inc()
	}
	if tot := st.GraphPairsScanned + st.GraphPairsPruned; tot > 0 {
		reg.Gauge("acorn_core_graph_candidate_ratio",
			"fraction of AP pairs the spatial index left for exact testing in the last graph build").
			Set(float64(st.GraphPairsScanned) / float64(tot))
	}
	if st.PartitionReused {
		reg.Counter("acorn_core_alloc_partition_reuses_total",
			"sharded solves that reused the engine-maintained contention partition instead of rebuilding the conflict graph").Inc()
	}
	if st.ShardWorkersUsed > 0 {
		reg.Counter("acorn_core_alloc_sharded_solves_total",
			"component-sharded Algorithm-2 runs completed").Inc()
		reg.Counter("acorn_core_alloc_components_solved_total",
			"contention components solved across all sharded reallocations").Add(uint64(st.SolvedComponents))
		h := reg.Histogram("acorn_core_alloc_component_solve_seconds",
			"per-component solve wall time of sharded reallocations", nil)
		for _, d := range st.ComponentDurations {
			h.Observe(d.Seconds())
		}
	}
	var w20, w40 int
	for _, ch := range cfg.Channels {
		switch ch.Width {
		case spectrum.Width40:
			w40++
		case spectrum.Width20:
			w20++
		}
	}
	reg.Gauge("acorn_core_cells_20mhz", "cells on a 20 MHz channel").Set(float64(w20))
	reg.Gauge("acorn_core_cells_40mhz", "cells on a bonded 40 MHz channel").Set(float64(w40))
	reg.Gauge("acorn_core_last_reallocation_unix",
		"unix time of the last completed reallocation").Set(float64(time.Now().Unix()))
}

// AutoConfigure is the whole ACORN pipeline for a static scenario: admit
// every client (Algorithm 1), then allocate channels (Algorithm 2). It
// returns the final evaluated report of the installed configuration.
func (c *Controller) AutoConfigure(clients []*wlan.Client) *wlan.NetworkReport {
	c.AdmitAll(clients)
	c.Reallocate()
	// A second association pass lets clients react to the final channel
	// widths (the deployed system interleaves these continuously).
	c.reassociate(clients)
	c.Reallocate()
	return c.Network.Evaluate(c.cfg)
}

// reassociate re-runs Algorithm 1 for each client under the current
// channels, in the original arrival order.
func (c *Controller) reassociate(clients []*wlan.Client) {
	if e := c.engineFor(); e != nil {
		_, sst := e.sweep(clients, sweepFresh, 0, c.Assoc.workers())
		c.publishSweep(sst)
		return
	}
	for _, u := range clients {
		c.cfg.Unassoc(u.ID)
		d := Associate(c.Network, c.cfg, u)
		if d.APID != "" {
			c.cfg.SetAssoc(u.ID, d.APID)
		}
	}
}

// publishSweep records one engine sweep's round structure.
func (c *Controller) publishSweep(sst sweepStats) {
	reg := c.registry()
	reg.Counter("acorn_core_roam_sweep_rounds_total",
		"snapshot-evaluate-apply rounds across all association sweeps").Add(uint64(sst.rounds))
	reg.Counter("acorn_core_roam_sweep_moves_total",
		"association moves applied by sweeps").Add(uint64(sst.moves))
	reg.Counter("acorn_core_roam_sweep_deferrals_total",
		"client evaluations deferred to a later round by the dirty test").Add(uint64(sst.deferrals))
	reg.Histogram("acorn_core_roam_sweep_overlay_seconds",
		"per-sweep wall time spent in the frozen-round overlay machinery (fan-out + merge)", nil).
		Observe(float64(sst.overlayNanos) / 1e9)
	c.publishEngineStats()
}

// goodputAt is the shared "expected goodput at SNR and width" primitive the
// width adapter uses; it lives here so controller-level consumers can reuse
// it without reaching into ratecontrol directly.
func goodputAt(n *wlan.Network, snr units.DB, w spectrum.Width) float64 {
	sel := ratecontrol.Best(snr, w, n.PacketBytes)
	return sel.GoodputMbps
}

// Roam re-evaluates one client's association with roaming hysteresis: the
// client moves only if another AP's utility beats the incumbent's by the
// given fractional margin. Long-running deployments call it for every
// present client at each reallocation tick.
func (c *Controller) Roam(u *wlan.Client, margin float64) AssociationDecision {
	if e := c.engineFor(); e != nil {
		st := e.ensureState(u)
		d := e.evalOne(st, sweepSticky, margin, nil)
		if d.APID != "" {
			e.applyHome(u.ID, st, e.apIdx[d.APID])
		}
		return d
	}
	incumbent := c.cfg.Assoc[u.ID]
	d := AssociateSticky(c.Network, c.cfg, u, incumbent, margin)
	if d.APID != "" {
		c.cfg.SetAssoc(u.ID, d.APID)
	}
	return d
}

// RoamAll re-evaluates every given client's association with roaming
// hysteresis in input order — equivalent to calling Roam for each client in
// turn (each decision applied before the next evaluation), but dispatched as
// one engine sweep with Assoc.Workers-wide parallel beacon evaluation. The
// decisions and the final configuration are bit-identical to the sequential
// loop for any worker count.
func (c *Controller) RoamAll(clients []*wlan.Client, margin float64) []AssociationDecision {
	span := c.registry().Histogram("acorn_core_roam_sweep_seconds",
		"wall time of one whole-population roaming sweep", nil).Start()
	defer span.End()
	if e := c.engineFor(); e != nil {
		ds, sst := e.sweep(clients, sweepSticky, margin, c.Assoc.workers())
		c.publishSweep(sst)
		return ds
	}
	ds := make([]AssociationDecision, 0, len(clients))
	for _, u := range clients {
		ds = append(ds, c.Roam(u, margin))
	}
	return ds
}
