package core

// Channel bonding selection — Algorithm 2 of the paper.
//
// The allocation problem (assign each AP a basic 20 MHz or composite 40 MHz
// "color" maximizing total network throughput, Eq. 5) is NP-complete, so
// ACORN runs a greedy gradient-style search: in each iteration every AP
// that has not yet switched this period evaluates the network throughput it
// could reach on every candidate channel (others held fixed), the AP with
// the maximum positive improvement ("rank") wins and switches, and the
// process repeats until no AP can improve. Periods repeat until the
// period-over-period improvement falls below ε (5%).
//
// The worst case is every AP trapped on the same color — throughput
// Σ X_isol/(deg_i+1) ≥ Y*/(Δ+1) — giving the O(1/(Δ+1)) approximation
// ratio; Section 5's Fig 14 experiment shows practice is far kinder.
//
// Two implementations share this contract. The generic path below evaluates
// every candidate with a full estimator sweep and works with any
// ThroughputEstimator. When the estimator is the default *Estimator, the
// search instead runs the incremental engine (allocstate.go, allocrun.go):
// per-cell throughput caching, dirty-rank caching across inner iterations,
// and deterministic parallel rank evaluation. Both paths implement the same
// greedy tie-breaking (lexicographically first AP wins on equal rank) and
// the incremental path reproduces the generic path's float arithmetic
// term-for-term, so allocations and trajectories are bit-identical; see
// DESIGN.md §10 for the invariants.

import (
	"runtime"
	"sort"
	"time"

	"acorn/internal/spectrum"
	"acorn/internal/wlan"
)

// DefaultEpsilon is the paper's stopping threshold: the search stops when a
// period improves total throughput by 5% or less (ε = 1.05).
const DefaultEpsilon = 1.05

// AllocOptions tunes Algorithm 2.
type AllocOptions struct {
	// Epsilon is the multiplicative improvement threshold; a period must
	// beat the previous period's throughput by this factor to continue.
	// Zero means DefaultEpsilon.
	Epsilon float64
	// MaxPeriods bounds the outer loop as a safety net; zero means 16.
	MaxPeriods int
	// Workers is the number of goroutines the incremental path fans the
	// per-AP rank scans across. Zero or negative means GOMAXPROCS; one
	// forces the serial scan. The resulting allocation, statistics and
	// trace are bit-identical for every value (the reduction is a serial
	// lexicographic scan over deterministically computed ranks). The
	// generic fallback path ignores it.
	Workers int
	// MaxSwitchesPerPeriod caps the number of channel switches one period
	// may perform; zero means unbounded (every AP may switch once, the
	// paper's rule). Large deployments use it to bound per-period
	// reconfiguration churn; benchmarks use it to bound measured work.
	// Both search paths apply it identically. Under sharding the cap is
	// per component (each subproblem is its own search).
	MaxSwitchesPerPeriod int
	// ShardWorkers, when positive, runs the search component-sharded:
	// the populated contention graph is split into connected components
	// and each component is solved as an independent subproblem, fanned
	// across this many workers with a deterministic serial merge
	// (components.go). The result is bit-identical for every ShardWorkers
	// value, and each component matches the reference oracle run on the
	// same subproblem — but the sharded search is not bit-identical to the
	// unsharded one: ε and the switch budget apply per component, and the
	// merged estimates sum over solved components. Zero or negative keeps
	// the whole-network search. Requires the default *Estimator; other
	// estimators ignore it.
	ShardWorkers int
	// Only, when non-nil, restricts which APs may switch: APs absent from
	// the set keep their current channel and are never ranked, though their
	// cells still price every candidate evaluation. The streaming controller
	// uses it to bound per-event re-optimization to a conflict
	// neighbourhood. Both search paths apply it identically; nil means every
	// AP is eligible (the paper's rule).
	Only map[string]bool
	// noSpatialIndex disables the uniform-grid candidate pruning of the
	// contention-graph builds (spatial.go), so every populated pair reaches
	// the exact predicate. The graph is bit-identical either way (the index
	// is a conservative pre-filter); the equivalence suite and the
	// full-scan benchmark set it to get the reference build.
	noSpatialIndex bool
	// gridCellM overrides the spatial index's cell size in meters for the
	// equivalence suite. Zero uses the carrier-sense cutoff radius, which
	// makes a neighborhood query touch at most a 3×3 cell block.
	gridCellM float64
	// Partition, when non-nil, lets a sharded solve reuse the association
	// engine's incrementally maintained contention partition instead of
	// rebuilding the conflict graph (partition.go). Ignored unless the
	// handle is valid for exactly the (network, configuration) being solved;
	// the Controller and StreamController attach it on their own calls.
	Partition *ContentionPartition
}

// eligible reports whether apID may switch under the Only restriction.
func (o AllocOptions) eligible(apID string) bool {
	return o.Only == nil || o.Only[apID]
}

func (o AllocOptions) epsilon() float64 {
	if o.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

func (o AllocOptions) maxPeriods() int {
	if o.MaxPeriods <= 0 {
		return 16
	}
	return o.MaxPeriods
}

func (o AllocOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o AllocOptions) shardWorkers() int {
	if o.ShardWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.ShardWorkers
}

// switchBudget returns the per-period switch cap as a sentinel-free count.
func (o AllocOptions) switchBudget() int {
	if o.MaxSwitchesPerPeriod <= 0 {
		return int(^uint(0) >> 1) // unbounded
	}
	return o.MaxSwitchesPerPeriod
}

// EvalStats counts the evaluation work one AllocateChannels run performed.
// The counts depend only on the inputs — never on Workers or goroutine
// scheduling — so they are as deterministic as the allocation itself. The
// two search paths do different kinds of work: the generic path reports
// FullEvals, the incremental path reports DeltaEvals, CellRecomputes and
// RankCacheHits.
type EvalStats struct {
	// RankEvals is the number of fresh per-AP argmax scans (a Tmp_i
	// evaluation over every candidate channel).
	RankEvals int
	// RankCacheHits is the number of per-AP rank lookups served by the
	// dirty-rank cache instead of a fresh scan.
	RankCacheHits int
	// DeltaEvals is the number of candidate configurations evaluated
	// incrementally (recompute the affected neighborhood, resum).
	DeltaEvals int
	// FullEvals is the number of candidate configurations evaluated by a
	// full estimator sweep (the generic path).
	FullEvals int
	// CellRecomputes is the number of per-cell throughput recomputations
	// the incremental path performed while applying deltas.
	CellRecomputes int
}

func (e *EvalStats) add(o EvalStats) {
	e.RankEvals += o.RankEvals
	e.RankCacheHits += o.RankCacheHits
	e.DeltaEvals += o.DeltaEvals
	e.FullEvals += o.FullEvals
	e.CellRecomputes += o.CellRecomputes
}

// AllocStats reports how the search went.
type AllocStats struct {
	// Periods is the number of outer iterations executed.
	Periods int
	// Switches is the total number of channel switches performed.
	Switches int
	// InitialEstimate and FinalEstimate are the estimator's view of total
	// network throughput before and after the search (Mbit/s).
	InitialEstimate float64
	FinalEstimate   float64
	// Trajectory records the estimated throughput after every switch.
	Trajectory []float64
	// History records every switch in order with the per-AP ranks of the
	// iteration that chose it — the raw material of the convergence trace.
	History []SwitchRecord
	// Evals counts the evaluation work behind the search.
	Evals EvalStats
	// RankNanos is wall time spent inside fresh rank evaluations
	// (runRanks), summed over the run — trace attribution for the
	// streaming pipeline. A timing, not a count: unlike Evals it varies
	// run to run and is excluded from determinism comparisons.
	RankNanos int64

	// Fallback marks a run (or, under sharding, any component) that priced
	// candidates with the generic full-sweep reference path instead of the
	// incremental engine — the latch the obs fallback counter watches.
	Fallback bool
	// SpectrumComponents is the number of distinct 20 MHz components the
	// engine assigned mask bits to (under sharding: the largest component's
	// count). The engines handle any number; this reports the scale.
	SpectrumComponents int
	// GraphComponents is the number of connected components of the
	// populated contention graph; LargestComponent is the AP count of the
	// biggest one. Zero when the generic path ran (it builds no graph).
	GraphComponents  int
	LargestComponent int
	// SolvedComponents and ShardWorkersUsed describe the sharded solve:
	// how many components held an eligible AP (and were therefore solved)
	// and how wide the worker fan-out was. ComponentDurations holds each
	// solved component's wall time, in component order. All zero/nil when
	// the search ran unsharded.
	SolvedComponents   int
	ShardWorkersUsed   int
	ComponentDurations []time.Duration
	// GraphPairsScanned counts populated AP pairs that reached the exact
	// contention predicate during the run's top-level graph build;
	// GraphPairsPruned counts pairs the spatial index proved incapable of
	// contending (zero on full scans). SpatialIndex reports whether the
	// index ran. All zero/false when the run reused a maintained partition
	// or took the generic path (neither builds a graph).
	GraphPairsScanned int
	GraphPairsPruned  int
	SpatialIndex      bool
	// PartitionReused marks a sharded run that skipped the graph build
	// entirely by reusing the association engine's incrementally maintained
	// contention partition.
	PartitionReused bool
}

// SwitchRecord captures one inner-loop decision of Algorithm 2: the
// max-rank AP that switched, where it moved, and what every still-eligible
// AP could have gained in the same iteration.
type SwitchRecord struct {
	// Period is the 1-based outer iteration this switch happened in.
	Period int
	// AP is the winner (the max-rank AP of the paper's greedy step).
	AP string
	// Channel is the assignment the winner switched to.
	Channel spectrum.Channel
	// Rank is the winner's improvement in estimated network throughput
	// (Mbit/s) over the state before this switch.
	Rank float64
	// Estimate is the estimated total network throughput after the switch.
	Estimate float64
	// Ranks holds, for every AP that was still eligible this iteration,
	// the best improvement it could have achieved (the winner's entry
	// equals Rank; non-positive entries mean "cannot improve").
	Ranks map[string]float64
}

// ThroughputEstimator is what Algorithm 2 needs from an estimator: a
// prediction of total network throughput for a hypothetical configuration.
// The default implementation is *Estimator (single measurement per link,
// recalibrated across widths); *ScanningEstimator trades scan time for
// per-channel accuracy.
type ThroughputEstimator interface {
	NetworkThroughput(cfg *wlan.Config) float64
}

// AllocateChannels runs Algorithm 2 over the current configuration and
// returns the improved configuration (cfg is not mutated) plus search
// statistics. Every AP must already hold a channel (use RandomInitial for
// the random bootstrap of Section 5.2).
//
// With the default *Estimator the search runs the incremental engine —
// delta evaluation, dirty-rank caching and (opts.Workers) parallel rank
// scans — which produces bit-identical results to the generic sweep. Any
// other estimator takes the generic path.
func AllocateChannels(n *wlan.Network, cfg *wlan.Config, est ThroughputEstimator, opts AllocOptions) (*wlan.Config, AllocStats) {
	if e, ok := est.(*Estimator); ok {
		if opts.ShardWorkers > 0 {
			if out, st, ok := allocateSharded(n, cfg, e, opts); ok {
				return out, st
			}
		}
		if st := newAllocState(n, cfg, e, opts); st != nil {
			return allocateIncremental(cfg, st, opts)
		}
	}
	return allocateGeneric(n, cfg, est, opts)
}

// allocateGeneric is the reference implementation of Algorithm 2: every
// candidate is priced by a full estimator sweep. It serves any
// ThroughputEstimator (e.g. *ScanningEstimator) and doubles as the oracle
// the incremental engine is tested and benchmarked against.
func allocateGeneric(n *wlan.Network, cfg *wlan.Config, est ThroughputEstimator, opts AllocOptions) (*wlan.Config, AllocStats) {
	cur := cfg.Clone()
	channels := n.Band.AllChannels()
	stats := AllocStats{InitialEstimate: est.NetworkThroughput(cur), Fallback: true}
	prevPeriod := stats.InitialEstimate
	y := prevPeriod
	// The candidate order is fixed for the whole search: sort once and
	// filter switched APs per iteration instead of re-sorting the
	// remaining set every inner iteration. APs outside opts.Only never
	// enter the order — they hold their channel and are never ranked.
	apOrder := make([]string, 0, len(n.APs))
	for _, ap := range n.APs {
		if opts.eligible(ap.ID) {
			apOrder = append(apOrder, ap.ID)
		}
	}
	sort.Strings(apOrder)

	for period := 0; period < opts.maxPeriods(); period++ {
		stats.Periods++
		switched := make(map[string]bool, len(apOrder))
		remaining := len(apOrder)
		// Inner loop: each AP may switch at most once per period; the
		// AP offering the best improvement moves first.
		for sw := 0; remaining > 0 && sw < opts.switchBudget(); sw++ {
			winner, winnerCh, winnerY := "", spectrum.Channel{}, y
			ranks := make(map[string]float64, remaining)
			for _, apID := range apOrder {
				if switched[apID] {
					continue
				}
				bestCh, bestY := bestChannelFor(cur, est, apID, channels)
				stats.Evals.RankEvals++
				stats.Evals.FullEvals += len(channels)
				ranks[apID] = bestY - y
				if bestY > winnerY {
					winner, winnerCh, winnerY = apID, bestCh, bestY
				}
			}
			if winner == "" {
				break // max rank < 0: nobody can improve
			}
			cur.Channels[winner] = winnerCh
			switched[winner] = true
			remaining--
			rank := winnerY - y
			y = winnerY
			stats.Switches++
			stats.Trajectory = append(stats.Trajectory, y)
			stats.History = append(stats.History, SwitchRecord{
				Period:   period + 1,
				AP:       winner,
				Channel:  winnerCh,
				Rank:     rank,
				Estimate: y,
				Ranks:    ranks,
			})
		}
		// Stop when the period's gain is within ε of the previous
		// period (≤5% improvement by default).
		if y < opts.epsilon()*prevPeriod {
			break
		}
		prevPeriod = y
	}
	stats.FinalEstimate = y
	return cur, stats
}

// bestChannelFor evaluates Tmp_i(c) for every candidate channel c of AP
// apID, holding all other assignments fixed, and returns the argmax and its
// estimated network throughput.
func bestChannelFor(cfg *wlan.Config, est ThroughputEstimator, apID string, channels []spectrum.Channel) (spectrum.Channel, float64) {
	orig := cfg.Channels[apID]
	bestCh, bestY := orig, -1.0
	for _, ch := range channels {
		cfg.Channels[apID] = ch
		yTmp := est.NetworkThroughput(cfg)
		if yTmp > bestY {
			bestCh, bestY = ch, yTmp
		}
	}
	cfg.Channels[apID] = orig
	return bestCh, bestY
}

// RandomInitial assigns every AP a uniformly random channel (20 or 40 MHz)
// from the band — the bootstrap state of Section 5.2 ("Initially, all APs
// are assigned either a 20 MHz or a 40 MHz channel at random").
func RandomInitial(n *wlan.Network, cfg *wlan.Config, randIntn func(int) int) {
	channels := n.Band.AllChannels()
	for _, ap := range n.APs {
		cfg.Channels[ap.ID] = channels[randIntn(len(channels))]
	}
}
