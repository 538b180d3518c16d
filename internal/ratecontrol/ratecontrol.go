// Package ratecontrol emulates the proprietary auto-rate behaviour of the
// testbed's Ralink cards: given a link's quality it selects the MCS and the
// MIMO operating mode (SDM for rate on strong links, STBC for reliability on
// weak ones), maximizing expected goodput R·(1−PER). It also provides the
// exhaustive "optimal fixed MCS" search the paper runs for Fig 6(b).
package ratecontrol

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"acorn/internal/mac"
	"acorn/internal/phy"
	"acorn/internal/spectrum"
	"acorn/internal/units"
)

// MIMO mode SNR adjustments for a 2×2 link, applied to the per-subcarrier
// SNR before evaluating BER:
//
//   - Alamouti STBC combines both antennas coherently, an array gain of
//     ≈3 dB on top of the transmit diversity that stabilizes fading links —
//     this is why the cards fall back to STBC on poor links.
//   - SDM splits the same total power across two independent streams, so
//     each stream runs ≈3 dB below the link SNR (plus residual inter-stream
//     interference, folded into the same constant).
const (
	STBCGain   units.DB = 3
	SDMPenalty units.DB = 3
)

// Selection is the outcome of a rate-control decision.
type Selection struct {
	MCS  phy.MCS
	Mode phy.MIMOMode
	// RateMbps is the nominal PHY rate of the selection.
	RateMbps float64
	// PER is the predicted packet error rate at the evaluated SNR.
	PER float64
	// GoodputMbps is the expected MAC-layer goodput (what the selection
	// was optimized for).
	GoodputMbps float64
	// ShortGI reports whether the selection uses the 400 ns guard
	// interval (only BestGI/EvaluateGI consider it).
	ShortGI bool
}

// effectiveSNR returns the per-stream subcarrier SNR for an MCS given the
// link's per-subcarrier SNR and the implied MIMO mode.
func effectiveSNR(snr units.DB, m phy.MCS) (units.DB, phy.MIMOMode) {
	if m.Streams >= 2 {
		return snr.Minus(SDMPenalty), phy.SDM
	}
	return snr.Plus(STBCGain), phy.STBC
}

// Evaluate predicts PER and goodput for one MCS at the given link SNR and
// width, using the standard 800 ns guard interval. The goodput accounts for
// MAC overheads and retransmissions via the mac package, so comparisons
// between a slow-reliable and fast-lossy MCS are made in the currency that
// matters.
func Evaluate(m phy.MCS, snr units.DB, w spectrum.Width, packetBytes int) Selection {
	return EvaluateGI(m, snr, w, packetBytes, false)
}

// EvaluateGI is Evaluate with an explicit guard-interval choice. The short
// 400 ns GI raises nominal rates ≈11% but shrinks the multipath guard; this
// model charges it a small SNR penalty (ShortGIPenalty) reflecting residual
// inter-symbol interference on indoor channels.
func EvaluateGI(m phy.MCS, snr units.DB, w spectrum.Width, packetBytes int, shortGI bool) Selection {
	eff, mode := effectiveSNR(snr, m)
	if shortGI {
		eff = eff.Minus(ShortGIPenalty)
	}
	per := phy.CodedPERFaded(m.ModCod(), eff, packetBytes, phy.DefaultFadeSigmaDB)
	rate := phy.NominalRateMbps(m, w, shortGI)
	delay := mac.ClientDelay(packetBytes, rate, per)
	goodput := 0.0
	if delay > 0 {
		goodput = 1 / delay
	}
	return Selection{MCS: m, Mode: mode, RateMbps: rate, PER: per, GoodputMbps: goodput, ShortGI: shortGI}
}

// ShortGIPenalty is the effective SNR cost of halving the guard interval on
// an indoor channel whose delay spread occasionally exceeds 400 ns.
const ShortGIPenalty units.DB = 0.5

// BestGI extends Best with the guard-interval dimension: the search
// considers both GI settings for every MCS/mode and returns the overall
// goodput maximizer.
func BestGI(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	best := Best(snr, w, packetBytes)
	for _, m := range mcsTable {
		if s := EvaluateGI(m, snr, w, packetBytes, true); s.GoodputMbps > best.GoodputMbps {
			best = s
		}
	}
	return best
}

// mcsTable is phy.MCSTable(), built once: the table is fixed and building
// it allocates.
var mcsTable = phy.MCSTable()

// bestCache memoizes Best: the function is pure and the allocation search
// evaluates the same links thousands of times. The key carries the exact
// SNR bits — an earlier version quantized to 0.01 dB, which let two SNRs
// within half a centi-dB share a slot and made every caller after the first
// read a Selection computed from a *different* SNR. That turned results
// order-dependent process-wide (whoever evaluated a bucket first seeded it
// for everyone), which breaks any bit-exactness contract between two code
// paths pricing the same links. Exact keying makes the memo invisible:
// cached and uncached calls return identical bits in any call order.
//
// The memo is process-wide, so it is bounded: once it holds bestCacheCap
// entries it is dropped whole and refilled. Dropping an exact memo changes
// no value, only what the next calls cost.
var bestCache atomic.Pointer[bestMemo]

// bestCacheCap bounds the Best memo. A fleet's working set of distinct
// (SNR, width, size) keys is far smaller; a campus run that measures every
// link at fresh SNRs would otherwise grow the memo without limit.
const bestCacheCap = 1 << 16

type bestMemo struct {
	m sync.Map     // bestKey → Selection
	n atomic.Int64 // entries stored in m
}

func init() { bestCache.Store(new(bestMemo)) }

type bestKey struct {
	snrBits     uint64
	width       spectrum.Width
	packetBytes int
}

// remember stores one Best result, dropping the whole memo first when it is
// full. Concurrent callers may overshoot the cap by at most one entry each
// before the next drop.
func remember(key bestKey, sel Selection) {
	memo := bestCache.Load()
	if memo.n.Load() >= bestCacheCap {
		fresh := new(bestMemo)
		if !bestCache.CompareAndSwap(memo, fresh) {
			fresh = bestCache.Load()
		}
		memo = fresh
	}
	if _, loaded := memo.m.LoadOrStore(key, sel); !loaded {
		memo.n.Add(1)
	}
}

// Best returns the MCS/mode pair maximizing expected goodput for a link
// whose per-subcarrier SNR at width w is snr. This emulates the Ralink
// auto-rate: it "not only adjusts the rates in response to packet
// successes/failures but also picks the best mode of operation (SDM or
// STBC) based on the channel quality" (Section 3.2).
func Best(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	key := bestKey{snrBits: math.Float64bits(float64(snr)), width: w, packetBytes: packetBytes}
	if v, ok := bestCache.Load().m.Load(key); ok {
		return v.(Selection)
	}
	best := bestSearch(snr, w, packetBytes)
	remember(key, best)
	return best
}

// bestSearch is Best without the memo: the goodput-maximizing MCS, the
// lowest table index among equals, or the most robust MCS when nothing
// decodes. It visits the MCSs in descending order of their error-free
// goodput and stops once that bound cannot beat the best found, which is
// exact: in float arithmetic mac.ExpectedAttempts(per) ≥ 1 and
// mac.DeliveryProbability(per) ≤ 1, so no MCS's goodput exceeds its bound.
func bestSearch(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	var best Selection
	bestIdx := -1
	for _, c := range rankFor(w, packetBytes) {
		i := c.idx
		if c.bound < best.GoodputMbps {
			break // every remaining bound is no higher
		}
		if c.bound == best.GoodputMbps && i > bestIdx {
			continue // at best a tie, which the lower index keeps
		}
		s := Evaluate(mcsTable[i], snr, w, packetBytes)
		if s.GoodputMbps > best.GoodputMbps || (s.GoodputMbps == best.GoodputMbps && i < bestIdx) {
			best, bestIdx = s, i
		}
	}
	if best.GoodputMbps == 0 {
		// Nothing decodes: report the most robust MCS so callers see a
		// concrete (failing) selection rather than a zero value.
		best = Evaluate(mcsTable[0], snr, w, packetBytes)
	}
	return best
}

// mcsBound is an MCS table index with its error-free goodput,
// 1/mac.ClientDelay(size, rate, 0): the most the MCS can deliver.
type mcsBound struct {
	idx   int
	bound float64
}

type rankKey struct {
	width       spectrum.Width
	packetBytes int
}

var rankCache sync.Map // rankKey → []mcsBound

// rankFor returns the MCS table for one (width, packet size) ordered by
// goodput bound, highest first, ties in table order.
func rankFor(w spectrum.Width, packetBytes int) []mcsBound {
	key := rankKey{w, packetBytes}
	if v, ok := rankCache.Load(key); ok {
		return v.([]mcsBound)
	}
	r := make([]mcsBound, len(mcsTable))
	for i, m := range mcsTable {
		r[i] = mcsBound{idx: i, bound: 1 / mac.ClientDelay(packetBytes, phy.NominalRateMbps(m, w, false), 0)}
	}
	sort.SliceStable(r, func(a, b int) bool { return r[a].bound > r[b].bound })
	v, _ := rankCache.LoadOrStore(key, r)
	return v.([]mcsBound)
}

// OptimalFixedMCS performs the exhaustive search of Fig 6(b): for the given
// link SNR it finds, separately for 20 and 40 MHz, the fixed MCS (considering
// both SDM and STBC operation) that yields the highest goodput. The 40 MHz
// SNR is derived from the 20 MHz SNR by subtracting the bonding penalty.
func OptimalFixedMCS(snr20 units.DB, packetBytes int) (best20, best40 Selection) {
	best20 = Best(snr20, spectrum.Width20, packetBytes)
	best40 = Best(snr20.Minus(phy.BondingSNRPenalty()), spectrum.Width40, packetBytes)
	return best20, best40
}

// AutoRate is a stateful rate controller with hysteresis, used by the
// mobility experiments where SNR varies over time. It re-runs Best only when
// the SNR moves more than Hysteresis away from the SNR of the last decision,
// mimicking the sluggishness of a real probing rate adapter.
type AutoRate struct {
	Width       spectrum.Width
	PacketBytes int
	// Hysteresis is the SNR change (dB) required to trigger a new search.
	Hysteresis units.DB

	lastSNR units.DB
	current Selection
	valid   bool
}

// NewAutoRate returns an AutoRate for the given width with the default 1 dB
// hysteresis.
func NewAutoRate(w spectrum.Width, packetBytes int) *AutoRate {
	return &AutoRate{Width: w, PacketBytes: packetBytes, Hysteresis: 1}
}

// Update feeds a new SNR observation and returns the (possibly unchanged)
// current selection.
func (a *AutoRate) Update(snr units.DB) Selection {
	if !a.valid || abs(snr-a.lastSNR) >= a.Hysteresis {
		a.current = Best(snr, a.Width, a.PacketBytes)
		a.lastSNR = snr
		a.valid = true
	}
	return a.current
}

func abs(d units.DB) units.DB {
	if d < 0 {
		return -d
	}
	return d
}
