package core

// The link-quality estimator of Section 4.2. When Algorithm 2 evaluates a
// candidate channel, the AP cannot measure the new channel directly; it
// estimates. Two assumptions, both validated in the paper:
//
//  1. Link quality does not vary significantly across different channels of
//     the *same* width (Fig 8, MIMO flattens frequency selectivity), so the
//     measured SNR carries over unchanged.
//  2. Changing *width* shifts the per-subcarrier SNR by the bonding penalty
//     (≈3 dB); the SNR-calibration module applies it, a BER-estimation
//     module computes the theoretical coded BER at the calibrated SNR, and
//     Eq. 6 turns BER into PER. ACORN needs only a coarse good/poor
//     classification, so theoretical formulas suffice.

import (
	"math"

	"acorn/internal/mac"
	"acorn/internal/ratecontrol"
	"acorn/internal/spectrum"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// Estimator predicts cell and network throughputs for hypothetical channel
// assignments from measured 20 MHz link SNRs. It is deliberately ignorant
// of per-channel jitter — the real network applies jitter; the estimator
// assumes channels of equal width are interchangeable.
//
// Links are measured on demand: the estimator records the network's APs and
// clients by ID when it is built and measures an AP→client link the first
// time a read needs it, so its cost follows the links Algorithm 2 reads (one
// per associated client) rather than APs × clients. An Estimator is
// single-goroutine: its link, contention and delay caches fill lazily on
// reads.
type Estimator struct {
	n *wlan.Network
	// aps and clients are the measurement snapshot: the network's APs and
	// clients by ID as they stood when the estimator was built (a
	// duplicated ID resolves to the last one in slice order). A link whose
	// AP or client is missing reads as unmeasurable (−Inf).
	aps     map[string]*wlan.AP
	clients map[string]*wlan.Client
	// snr20 caches the measured reference SNR of every AP→client link read
	// so far.
	snr20 map[linkKey]units.DB
	// MeasurementNoiseDB, when non-zero, perturbs each cached measurement
	// deterministically to model imperfect driver SNR reports.
	MeasurementNoiseDB float64

	// contends caches the pairwise contention relation. Contention
	// depends on geometry and the association map — not on channel
	// assignments — so during one Algorithm 2 run (association fixed)
	// the relation is static, and caching it removes the dominant
	// O(APs²·clients) term from every candidate evaluation.
	contends map[linkKey]bool

	// delayMemo, when non-nil, memoizes the per-(link, width) transmission
	// delays across the estimator's lifetime — and beyond it, when the
	// association engine vends estimators sharing one memo across
	// reallocations. nil (the NewEstimator default) keeps the original
	// uncached behavior. The memo is bypassed under measurement noise,
	// whose perturbation is part of the delay.
	delayMemo map[widthKey]float64
}

type linkKey struct{ ap, client string }

type widthKey struct {
	ap, client string
	w          spectrum.Width
}

// NewEstimator builds an estimator over the network. It records the APs and
// clients by ID and measures nothing yet: each link's 20 MHz reference SNR
// is measured (and cached) on its first read, so construction is
// O(APs + clients).
func NewEstimator(n *wlan.Network) *Estimator {
	e := &Estimator{
		n:       n,
		aps:     make(map[string]*wlan.AP, len(n.APs)),
		clients: make(map[string]*wlan.Client, len(n.Clients)),
		snr20:   make(map[linkKey]units.DB),
	}
	for _, ap := range n.APs {
		e.aps[ap.ID] = ap
	}
	for _, c := range n.Clients {
		e.clients[c.ID] = c
	}
	return e
}

// LinkSNR returns the estimated per-subcarrier SNR of the link on a channel
// of the given width: the measured 20 MHz reference, recalibrated by the
// bonding penalty when the target is 40 MHz.
func (e *Estimator) LinkSNR(apID, clientID string, w spectrum.Width) units.DB {
	snr, ok := e.measured(apID, clientID)
	if !ok {
		return units.DB(math.Inf(-1))
	}
	if e.MeasurementNoiseDB != 0 {
		snr += units.DB(e.MeasurementNoiseDB * noiseUnit(apID, clientID))
	}
	return snrForWidth(snr, w)
}

// measured returns the link's 20 MHz reference SNR, measuring and caching it
// on the first read. ok is false when the AP or the client was not in the
// network when the estimator was built.
func (e *Estimator) measured(apID, clientID string) (units.DB, bool) {
	k := linkKey{apID, clientID}
	if snr, ok := e.snr20[k]; ok {
		return snr, true
	}
	ap, c := e.aps[apID], e.clients[clientID]
	if ap == nil || c == nil {
		return 0, false
	}
	snr := e.n.ClientSNR20(ap, c)
	e.snr20[k] = snr
	return snr, true
}

// noiseUnit returns a deterministic pseudo-random value in (-1, 1) per link.
func noiseUnit(apID, clientID string) float64 {
	var h uint64 = 14695981039346656037
	for _, s := range []string{apID, "~", clientID} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(int64(h)) / math.MaxInt64
}

// ClientDelay returns the estimated d_cl of the link on the given channel.
// The delay depends on the channel only through its width, which is what
// lets the incremental allocator precompute per-(link, width) delay tables.
func (e *Estimator) ClientDelay(apID, clientID string, ch spectrum.Channel) float64 {
	return e.clientDelayWidth(apID, clientID, ch.Width)
}

// clientDelayWidth is ClientDelay keyed by width directly.
func (e *Estimator) clientDelayWidth(apID, clientID string, w spectrum.Width) float64 {
	memo := e.delayMemo != nil && e.MeasurementNoiseDB == 0
	if memo {
		if d, ok := e.delayMemo[widthKey{apID, clientID, w}]; ok {
			return d
		}
	}
	snr := e.LinkSNR(apID, clientID, w)
	sel := ratecontrol.Best(snr, w, e.n.PacketBytes)
	d := 1 / sel.GoodputMbps // goodput is floored by the MAC delay cap
	if memo {
		e.delayMemo[widthKey{apID, clientID, w}] = d
	}
	return d
}

// ClientPER returns the estimated PER of the link at the given width, the
// output of the BER-estimation module followed by Eq. 6: calibrate the SNR
// for the width (bonding penalty), then select the rate a card would run at
// that width and report its residual PER.
func (e *Estimator) ClientPER(apID, clientID string, w spectrum.Width) float64 {
	snr := e.LinkSNR(apID, clientID, w)
	sel := ratecontrol.Best(snr, w, e.n.PacketBytes)
	return sel.PER
}

// contend returns the (cached) contention relation between two APs. The
// cache assumes the association map is stable for the estimator's lifetime,
// which holds during an Algorithm 2 run; build a fresh estimator after
// changing associations.
func (e *Estimator) contend(cfg *wlan.Config, a, b *wlan.AP) bool {
	if a.ID == b.ID {
		return false
	}
	key := linkKey{a.ID, b.ID}
	if v, ok := e.contends[key]; ok {
		return v
	}
	if e.contends == nil {
		e.contends = make(map[linkKey]bool)
	}
	v := e.n.Contend(a, b, cfg)
	e.contends[key] = v
	e.contends[linkKey{b.ID, a.ID}] = v
	return v
}

// accessShare mirrors wlan.Network.AccessShare using the cached contention
// relation and precomputed cell sizes.
func (e *Estimator) accessShare(cfg *wlan.Config, ap *wlan.AP, populated map[string]int) float64 {
	ch := cfg.Channels[ap.ID]
	contenders := 0
	for _, other := range e.n.APs {
		if other.ID == ap.ID || populated[other.ID] == 0 {
			continue
		}
		if !ch.Conflicts(cfg.Channels[other.ID]) {
			continue
		}
		if e.contend(cfg, ap, other) {
			contenders++
		}
	}
	return 1 / float64(contenders+1)
}

// CellThroughput estimates the aggregate throughput of ap's cell under the
// hypothetical configuration cfg (UDP saturated model). Like
// NetworkThroughput it prices the access share through the estimator's own
// cached contention relation — not the network's live predicate — so the
// hot path the cache was built for actually uses it (and the result is
// consistent with the per-cell terms of NetworkThroughput).
func (e *Estimator) CellThroughput(cfg *wlan.Config, apID string) float64 {
	clients := cfg.ClientsOf(apID)
	if len(clients) == 0 {
		return 0
	}
	ch := cfg.Channels[apID]
	delays := make([]float64, 0, len(clients))
	for _, id := range clients {
		delays = append(delays, e.ClientDelay(apID, id, ch))
	}
	populated := make(map[string]int, len(e.n.APs))
	for _, homeID := range cfg.Assoc {
		populated[homeID]++
	}
	cell := mac.Cell{Delays: delays, AccessShare: e.accessShare(cfg, e.n.AP(apID), populated)}
	return cell.AggregateThroughput()
}

// NetworkThroughput estimates the total aggregate throughput Y of the
// hypothetical configuration — the objective of Eq. 5 as Algorithm 2 sees
// it while searching.
func (e *Estimator) NetworkThroughput(cfg *wlan.Config) float64 {
	// Cell population is channel-independent; compute it once.
	populated := make(map[string]int, len(e.n.APs))
	for _, apID := range cfg.Assoc {
		populated[apID]++
	}
	var total float64
	for _, ap := range e.n.APs {
		k := populated[ap.ID]
		if k == 0 {
			continue
		}
		ch := cfg.Channels[ap.ID]
		var atd float64
		// Sum in the network's stable client order — summing in map
		// iteration order makes the float total run-dependent, which
		// the argmax search would amplify into different allocations.
		for _, c := range e.n.Clients {
			if cfg.Assoc[c.ID] == ap.ID {
				atd += e.ClientDelay(ap.ID, c.ID, ch)
			}
		}
		if atd > 0 {
			// K·M/ATD, the anomaly-model cell aggregate.
			total += float64(k) * e.accessShare(cfg, ap, populated) / atd
		}
	}
	return total
}
