package core

// Incremental evaluation state for Algorithm 1 (the association-scaling
// tentpole; see DESIGN.md §11 — the companion of the Algorithm-2 engine in
// allocstate.go).
//
// The reference association path prices one admission by gathering a
// modified beacon from every in-range AP, and each beacon costs a full
// network walk: ClientsOf + a rate-control evaluation per cell member for
// ATD, and an AccessShare whose contention predicate scans every client in
// the network per AP pair. Under churn (admit/evict/roam at every event) and
// during whole-population roaming sweeps this is O(cands · (K + APs·clients))
// per client — the dominant cost at enterprise scale.
//
// The engine maintains the quantities those walks re-derive:
//
//   - pop[i]        — cell population K_i, updated O(1) per move;
//   - cntHome[h][o] — how many clients homed at AP h are carrier-sensed by
//     AP o: the client term of wlan.Network.Contend for the pair, updated
//     O(|heardBy|) per move from the client's static hearing bitset;
//   - apapDir[a][o] — the direct AP→AP carrier-sense term (directional:
//     "o hears a's transmit power"), precomputed once;
//   - a per-(AP, client, channel) memo of the beacon transmission delays
//     (the rate-control evaluations), valid for the client's lifetime
//     because link SNR depends only on static geometry and the channel;
//   - per-client candidate sets (the in-range predicate is jitter-free and
//     static) pre-sorted in the beacon order GatherBeacons pins.
//
// With those, a beacon's M is an O(APs) loop of integer mask/count checks
// (the trial-association adjustments are closed-form: moving the inquirer u
// from home h to candidate a shifts pop[o] by −[h==o] and the pair count
// cnt(a,o) by +[h≠a]·heard(o,u) − [h==o]·heard(a,u)), and ATD is an O(K)
// re-fold of memoized delays.
//
// ATD is deliberately re-folded per beacon instead of kept as a running
// float: float addition is not associative, so an incrementally maintained
// Σd_cl would drift from the oracle's left-to-right fold after removals, and
// the argmax of Eq. 4 would amplify one ULP of drift into different
// associations. The re-fold walks cfg.ClientsOf(ap) in the same (sorted)
// order with the inquirer's delay first — the exact float expression
// GatherBeacon evaluates — so every Beacon field is bit-identical to the
// reference, decisions reuse AssociateFromBeacons verbatim, and the
// equivalence suite can require == rather than ≈.
//
// Like the allocator engine, channel conflicts reduce to bitmask
// intersection. Masks are multi-word bitsets sized at engine build from the
// components of the band plus the bound configuration, so any component
// count is representable; if a later configuration brings components beyond
// the built capacity, bind() fails and the Controller rebuilds the engine
// with wider masks — the reference path is never needed for component
// count.

import (
	"math"
	"math/bits"
	"sort"

	"acorn/internal/bitset"
	"acorn/internal/geo"
	"acorn/internal/spectrum"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// assocEngine is the incremental association engine for one (network,
// configuration) binding. All mutations of the bound configuration's
// association map must flow through the engine (applyHome/evict) so the
// maintained aggregates track it; the Controller enforces this by owning
// both. Channel changes arrive via bind after a reallocation.
type assocEngine struct {
	n   *wlan.Network
	cfg *wlan.Config

	// aps snapshots n.APs (the engine is rebuilt if the AP set changes);
	// apIDs/apIdx/apByID index it, chans/mask mirror cfg.Channels.
	aps     []*wlan.AP
	apIDs   []string
	apIdx   map[string]int
	apByID  map[string]*wlan.AP
	chans   []spectrum.Channel
	mask    bitset.Field
	compBit map[spectrum.ChannelID]uint
	// compCap is the mask bit capacity (compWords·64). A configuration
	// whose component set outgrows it fails syncChannels, and the
	// Controller rebuilds the engine with wider masks.
	compWords int
	compCap   uint

	// override is true when the network's contention predicate is replaced
	// wholesale (measurement-driven deployments); client terms are skipped
	// then, exactly as wlan.Network.Contend does.
	override bool
	// apapDir[a][o] is the direct carrier-sense term of Contend(APs[a],
	// APs[o]) — whether o hears a's transmit power (directional when
	// transmit powers differ). In override mode it holds the override's
	// verdict for the ordered pair.
	apapDir [][]bool
	// apapNbr[a] lists the o with the unordered AP↔AP contention term true
	// (apapDir in the lower-index-transmits direction) — the static edge
	// lists the partition unions along population transitions.
	apapNbr [][]int32

	// part is the incrementally maintained contention partition
	// (partition.go), rebuilt with the engine and updated by the
	// applyHome/ensureState hooks.
	part *contentionPartition

	// pop is the cell population K per AP (associations to APs the network
	// does not know are tracked by the configuration but price as nothing,
	// mirroring the reference).
	pop []int
	// cntHome[h][o] counts clients homed at AP h that AP o carrier-senses
	// — the client term of Contend(h, o) from h's side.
	cntHome [][]int32

	clients map[string]*assocClient
	nextIdx int32

	// expectAssocLen and nClientsSeen are the cheap consistency sentinels
	// bind() checks: an association map mutated behind the engine's back or
	// a client removed from the network while still associated invalidates
	// the engine (the Controller then rebuilds it).
	expectAssocLen int
	nClientsSeen   int

	// beaconDelay memoizes the per-(AP, client, channel) transmission
	// delays of the beacon path (jittered per-channel SNR). Keyed by the
	// client's incarnation index, so a re-arriving client with new geometry
	// gets fresh entries. memoKeys indexes the memo by incarnation so a
	// departure (evict) or reincarnation purges exactly its own entries in
	// O(entries purged) — memo size stays O(live clients) under indefinite
	// churn.
	beaconDelay map[assocDelayKey]float64
	memoKeys    map[int32][]assocDelayKey

	// snr20/widthDelay back the estimators the engine vends for Algorithm 2
	// (Controller.Reallocate): the reference SNRs measured so far and the
	// per-(link, width) delay memo survive across reallocations. snrDone
	// maps each client ID to the incarnation those caches describe; it is
	// the vended estimators' client snapshot.
	snr20      map[linkKey]units.DB
	snrDone    map[string]*wlan.Client
	widthDelay map[widthKey]float64

	stats assocEngineStats
}

// assocClient is the engine's per-client state. Candidate sets and hearing
// bitsets depend only on the client's geometry, which the engine assumes
// fixed for one incarnation (a new *wlan.Client pointer under the same ID
// triggers a refresh).
type assocClient struct {
	c   *wlan.Client
	idx int32
	// home is the index of the client's current AP, or -1 when the client
	// is unassociated (or associated to an AP outside the network, which
	// prices identically).
	home int
	// cands lists the in-range AP indices in ascending AP-ID order — the
	// beacon order GatherBeacons pins.
	cands []int32
	// heard is a bitset over AP indices: the APs that carrier-sense this
	// client (the client term of the contention predicate).
	heard []uint64
	// candBits is cands as a bitset, for the sweep's dirty test.
	candBits []uint64
}

type assocDelayKey struct {
	ap int32
	cl int32
	ch spectrum.Channel
}

// assocEngineStats counts the engine's work. Plain ints: mutated serially
// (worker overlays are merged in after each sweep round).
type assocEngineStats struct {
	// updates counts aggregate-update operations (association moves applied
	// to the maintained state).
	updates int
	// fastBeacons counts beacons produced by the engine.
	fastBeacons int
	// memoHits/memoMisses count beacon-delay memo lookups.
	memoHits   int
	memoMisses int
	// partUpdates counts incremental partition hook invocations;
	// partRefreshes counts lazy dirty-group re-partitions; partRebuilds
	// counts from-scratch partition constructions (one per engine build —
	// client-only churn must keep this flat, which the stream tests pin).
	partUpdates   int
	partRefreshes int
	partRebuilds  int
}

func (s *assocEngineStats) add(o assocEngineStats) {
	s.updates += o.updates
	s.fastBeacons += o.fastBeacons
	s.memoHits += o.memoHits
	s.memoMisses += o.memoMisses
	s.partUpdates += o.partUpdates
	s.partRefreshes += o.partRefreshes
	s.partRebuilds += o.partRebuilds
}

// newAssocEngine builds the engine for the given binding, or returns nil
// when the configuration cannot be represented (an associated client the
// network does not know) — callers then use the reference path. Component
// count never prevents a build: masks are sized to fit the band and the
// bound configuration.
func newAssocEngine(n *wlan.Network, cfg *wlan.Config) *assocEngine {
	e := &assocEngine{
		n:           n,
		cfg:         cfg,
		aps:         append([]*wlan.AP(nil), n.APs...),
		apIDs:       make([]string, len(n.APs)),
		apIdx:       make(map[string]int, len(n.APs)),
		apByID:      make(map[string]*wlan.AP, len(n.APs)),
		chans:       make([]spectrum.Channel, len(n.APs)),
		compBit:     make(map[spectrum.ChannelID]uint, 16),
		pop:         make([]int, len(n.APs)),
		cntHome:     make([][]int32, len(n.APs)),
		clients:     make(map[string]*assocClient, len(cfg.Assoc)),
		beaconDelay: make(map[assocDelayKey]float64, 4*len(cfg.Assoc)),
		memoKeys:    make(map[int32][]assocDelayKey, len(cfg.Assoc)),
		snr20:       make(map[linkKey]units.DB),
		snrDone:     make(map[string]*wlan.Client),
		widthDelay:  make(map[widthKey]float64),
	}
	for i, ap := range e.aps {
		e.apIDs[i] = ap.ID
		e.apIdx[ap.ID] = i
		e.apByID[ap.ID] = ap
	}
	// Size the masks from every component in sight — the band (what a
	// reallocation can assign) plus the bound configuration (which may
	// hold channels beyond the band). New components arriving later fill
	// the headroom up to compCap; past that, bind() rebuilds wider.
	for _, ch := range n.Band.AllChannels() {
		for _, comp := range ch.Components() {
			if _, ok := e.compBit[comp]; !ok {
				e.compBit[comp] = uint(len(e.compBit))
			}
		}
	}
	for _, ap := range e.aps {
		if ch := cfg.Channels[ap.ID]; !ch.IsZero() {
			for _, comp := range ch.Components() {
				if _, ok := e.compBit[comp]; !ok {
					e.compBit[comp] = uint(len(e.compBit))
				}
			}
		}
	}
	e.compWords = bitset.Words(len(e.compBit))
	e.compCap = uint(e.compWords) * 64
	e.mask = bitset.NewField(len(e.aps), e.compWords)
	if !e.syncChannels(cfg) {
		return nil // unreachable: capacity was sized from this cfg
	}
	e.override = n.ContendOverride != nil
	e.apapDir = make([][]bool, len(e.aps))
	for a := range e.aps {
		e.apapDir[a] = make([]bool, len(e.aps))
	}
	if !e.buildApapSpatial() {
		for a, apA := range e.aps {
			row := e.apapDir[a]
			for o, apO := range e.aps {
				if o == a {
					continue
				}
				if e.override {
					row[o] = n.ContendOverride(apA.ID, apO.ID)
				} else {
					row[o] = n.Prop.RxPower(apA.TxPower, apA.Pos.DistanceTo(apO.Pos), 0) >= n.CSThreshold
				}
			}
		}
	}
	// The unordered AP↔AP contention term reads the lower-index-transmits
	// direction only; materialize it once as symmetric neighbor lists for
	// the partition's population-transition unions.
	e.apapNbr = make([][]int32, len(e.aps))
	for a := range e.aps {
		row := e.apapDir[a]
		for o := a + 1; o < len(e.aps); o++ {
			if row[o] {
				e.apapNbr[a] = append(e.apapNbr[a], int32(o))
				e.apapNbr[o] = append(e.apapNbr[o], int32(a))
			}
		}
	}
	for i := range e.cntHome {
		e.cntHome[i] = make([]int32, len(e.aps))
	}
	e.nClientsSeen = len(n.Clients)
	e.expectAssocLen = len(cfg.Assoc)
	for id, apID := range cfg.Assoc {
		u := n.Client(id)
		if u == nil {
			return nil // an associated phantom the contention walk never sees
		}
		st := e.ensureState(u)
		if hi, ok := e.apIdx[apID]; ok {
			st.home = hi
			e.pop[hi]++
			e.addHeardCounts(hi, st, +1)
		}
	}
	e.part = newContentionPartition(e)
	return e
}

// buildApapSpatial fills apapDir through per-row grid queries instead of
// the O(APs²) distance scan: row a's true entries all lie within the
// carrier-sense range of a's transmit power (rf.CarrierSenseRange is a
// conservative upper bound), so querying the AP grid at that radius and
// running the exact predicate on the survivors reproduces the full scan's
// rows bit-identically. Returns false — leaving the full scan to run —
// under a contention override (verdicts are not geometric) or when the
// propagation model exposes no invertible bound.
func (e *assocEngine) buildApapSpatial() bool {
	if e.override || len(e.aps) < 2 {
		return false
	}
	radii := make([]float64, len(e.aps))
	maxR := 0.0
	for a, ap := range e.aps {
		r, ok := e.n.Prop.CarrierSenseRange(ap.TxPower, e.n.CSThreshold)
		if !ok || math.IsInf(r, 0) || math.IsNaN(r) {
			return false
		}
		radii[a] = r
		if r > maxR {
			maxR = r
		}
	}
	g := geo.NewGrid(maxR)
	for a, ap := range e.aps {
		g.Add(int32(a), ap.Pos.X, ap.Pos.Y)
	}
	for a, apA := range e.aps {
		row := e.apapDir[a]
		g.VisitWithin(apA.Pos.X, apA.Pos.Y, radii[a], func(o32 int32) {
			o := int(o32)
			if o == a {
				return
			}
			row[o] = e.n.Prop.RxPower(apA.TxPower, apA.Pos.DistanceTo(e.aps[o].Pos), 0) >= e.n.CSThreshold
		})
	}
	return true
}

// syncChannels refreshes the per-AP channel/mask mirrors from cfg. It fails
// (engine masks too narrow) when the component set outgrows the capacity
// the engine was built with — the caller then rebuilds with wider masks.
func (e *assocEngine) syncChannels(cfg *wlan.Config) bool {
	for i, ap := range e.aps {
		ch := cfg.Channels[ap.ID]
		if !e.maskInto(e.mask.At(i), ch) {
			return false
		}
		e.chans[i] = ch
	}
	return true
}

// maskInto writes ch's conflict mask into dst (a zero mask for the zero
// channel, which conflicts with nothing, like Channel.Conflicts). It fails
// when a new component would exceed the mask capacity.
func (e *assocEngine) maskInto(dst bitset.Set, ch spectrum.Channel) bool {
	dst.Clear()
	if ch.IsZero() {
		return true
	}
	for _, comp := range ch.Components() {
		bit, ok := e.compBit[comp]
		if !ok {
			bit = uint(len(e.compBit))
			if bit >= e.compCap {
				return false
			}
			e.compBit[comp] = bit
		}
		dst.SetBit(bit)
	}
	return true
}

// bind revalidates the engine against the (possibly new) configuration
// pointer and the network's current client set. It returns false when the
// engine can no longer vouch for its aggregates — the caller rebuilds.
func (e *assocEngine) bind(cfg *wlan.Config) bool {
	if len(e.n.APs) != len(e.aps) {
		return false
	}
	if len(cfg.Assoc) != e.expectAssocLen {
		return false
	}
	if cfg != e.cfg {
		// A reallocation installed a cloned configuration: same
		// associations (checked by count above — Reallocate clones the map
		// verbatim), new channels.
		if !e.syncChannels(cfg) {
			return false
		}
		e.cfg = cfg
	}
	if len(e.n.Clients) != e.nClientsSeen {
		// The client set changed. Arrivals are handled lazily; what must
		// never happen is a client leaving the network while still
		// associated (the reference contention walk would stop seeing it).
		// An associated client replaced by a new incarnation (same ID, new
		// object — refreshed geometry) is absorbed incrementally: ensureState
		// retires the old hearing contributions and adopts the new ones, so
		// a membership-churn batch never forces a whole-engine rebuild.
		for id := range cfg.Assoc {
			st := e.clients[id]
			if st == nil {
				return false
			}
			if u := e.n.Client(id); u == nil {
				return false
			} else if u != st.c {
				e.ensureState(u)
			}
		}
		e.nClientsSeen = len(e.n.Clients)
	}
	return true
}

// ensureState returns the engine state for u, building or refreshing it when
// u is new or re-arrived with a different object (new geometry).
func (e *assocEngine) ensureState(u *wlan.Client) *assocClient {
	st := e.clients[u.ID]
	if st != nil && st.c == u {
		return st
	}
	words := (len(e.aps) + 63) / 64
	if st == nil {
		st = &assocClient{idx: e.nextIdx, home: -1}
		e.nextIdx++
		e.clients[u.ID] = st
	} else {
		// Reincarnation: retire the old geometry's contributions, its
		// delay-memo entries (by incarnation index), and its link caches.
		if st.home >= 0 {
			e.addHeardCounts(st.home, st, -1)
			if e.part != nil {
				e.part.afterRemove(e, st.home, st)
			}
		}
		e.purgeDelayMemo(st.idx)
		st.idx = e.nextIdx
		e.nextIdx++
		e.purgeLinks(u.ID)
	}
	st.c = u
	st.heard = make([]uint64, words)
	st.candBits = make([]uint64, words)
	st.cands = st.cands[:0]
	for i, ap := range e.aps {
		if e.n.Prop.RxPower(ap.TxPower, ap.Pos.DistanceTo(u.Pos), 0) >= e.n.CSThreshold {
			st.heard[i/64] |= 1 << (uint(i) % 64)
		}
		if e.n.ClientSNR20(ap, u) >= e.n.AssocMinSNR {
			st.cands = append(st.cands, int32(i))
			st.candBits[i/64] |= 1 << (uint(i) % 64)
		}
	}
	sort.Slice(st.cands, func(x, y int) bool {
		return e.apIDs[st.cands[x]] < e.apIDs[st.cands[y]]
	})
	if st.home >= 0 {
		e.addHeardCounts(st.home, st, +1)
		if e.part != nil {
			e.part.afterAdd(e, st.home, st)
		}
	}
	return st
}

// purgeDelayMemo drops one incarnation's beacon-delay memo entries via the
// memoKeys index, in time proportional to the entries dropped.
func (e *assocEngine) purgeDelayMemo(idx int32) {
	for _, k := range e.memoKeys[idx] {
		delete(e.beaconDelay, k)
	}
	delete(e.memoKeys, idx)
}

// purgeLinks drops the ID-keyed link caches of a reincarnated client so the
// vended estimators re-measure it.
func (e *assocEngine) purgeLinks(id string) {
	for _, apID := range e.apIDs {
		delete(e.widthDelay, widthKey{apID, id, spectrum.Width20})
		delete(e.widthDelay, widthKey{apID, id, spectrum.Width40})
		delete(e.snr20, linkKey{apID, id})
	}
	delete(e.snrDone, id)
}

// addHeardCounts folds the client's hearing bitset into (or out of) home h's
// pair counts.
func (e *assocEngine) addHeardCounts(h int, st *assocClient, delta int32) {
	row := e.cntHome[h]
	for w, word := range st.heard {
		for word != 0 {
			o := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if o != h {
				row[o] += delta
			}
		}
	}
}

// heardBit reports whether AP index o carrier-senses the client.
func (st *assocClient) heardBit(o int) bool {
	return st.heard[o/64]&(1<<(uint(o)%64)) != 0
}

// applyHome moves the client to AP index target (-1 = unassociated),
// updating the configuration and every maintained aggregate in
// O(|heardBy|). No-op when the client is already there.
func (e *assocEngine) applyHome(id string, st *assocClient, target int) {
	if target == st.home {
		return
	}
	_, had := e.cfg.Assoc[id]
	if st.home >= 0 {
		old := st.home
		e.pop[old]--
		e.addHeardCounts(old, st, -1)
		if e.part != nil {
			e.part.afterRemove(e, old, st)
		}
	}
	st.home = target
	if target >= 0 {
		e.pop[target]++
		e.addHeardCounts(target, st, +1)
		if e.part != nil {
			e.part.afterAdd(e, target, st)
		}
		e.cfg.SetAssoc(id, e.apIDs[target])
		if !had {
			e.expectAssocLen++
		}
	} else {
		e.cfg.Unassoc(id)
		if had {
			e.expectAssocLen--
		}
	}
	e.stats.updates++
}

// evict removes a departed client's association and retires its engine
// state (delay-memo entries, link caches, per-client aggregates), bounding
// every per-client structure to the live population. It reports false when
// the engine holds no state for an associated client — an invariant breach
// that forces a rebuild.
func (e *assocEngine) evict(id string) bool {
	st := e.clients[id]
	if _, ok := e.cfg.Assoc[id]; !ok {
		// Unknown or already unassociated: the reference path is a no-op
		// too, but a departing never-associated client still retires its
		// engine state.
		if st != nil {
			e.dropClient(id, st)
		}
		return true
	}
	if st == nil {
		return false
	}
	e.applyHome(id, st, -1)
	e.dropClient(id, st)
	return true
}

// dropClient retires a departed (unassociated) client's engine state.
func (e *assocEngine) dropClient(id string, st *assocClient) {
	e.purgeDelayMemo(st.idx)
	e.purgeLinks(id)
	delete(e.clients, id)
}

// delayOf returns the memoized beacon transmission delay of (AP a, client,
// channel), computing and caching it on miss. With a non-nil overlay (worker
// context) writes go to the overlay; the shared memo is read-only then.
func (e *assocEngine) delayOf(a int, st *assocClient, ch spectrum.Channel, ov *delayOverlay) float64 {
	k := assocDelayKey{int32(a), st.idx, ch}
	if ov != nil {
		if d, ok := ov.m[k]; ok {
			ov.stats.memoHits++
			return d
		}
		if d, ok := e.beaconDelay[k]; ok {
			ov.stats.memoHits++
			return d
		}
		d := clientDelay(e.n, e.aps[a], st.c, ch)
		ov.m[k] = d
		ov.stats.memoMisses++
		return d
	}
	if d, ok := e.beaconDelay[k]; ok {
		e.stats.memoHits++
		return d
	}
	d := clientDelay(e.n, e.aps[a], st.c, ch)
	e.beaconDelay[k] = d
	e.memoKeys[k.cl] = append(e.memoKeys[k.cl], k)
	e.stats.memoMisses++
	return d
}

// trialAccessShare computes the M the inquirer would observe at candidate a
// — the access share of a with the inquirer trial-associated — without
// touching the configuration. Mirrors accessShareWith/AccessShare exactly:
// same skip conditions, same contention verdicts, so the resulting float is
// the same 1/(contenders+1).
func (e *assocEngine) trialAccessShare(a int, st *assocClient) float64 {
	h := st.home
	ma := e.mask.At(a)
	contenders := 0
	for o := range e.aps {
		if o == a {
			continue
		}
		popT := e.pop[o]
		if h == o {
			popT-- // the trial association pulls the inquirer out of o
		}
		if popT == 0 {
			continue
		}
		if !ma.Intersects(e.mask.At(o)) {
			continue
		}
		var contend bool
		if e.override {
			contend = e.apapDir[a][o]
		} else if e.apapDir[a][o] {
			contend = true
		} else {
			cnt := e.cntHome[a][o] + e.cntHome[o][a]
			if h != a && st.heardBit(o) {
				cnt++ // the inquirer joins a's cell within o's earshot
			}
			if h == o && st.heardBit(a) {
				cnt-- // ... and leaves o's cell within a's earshot
			}
			contend = cnt > 0
		}
		if contend {
			contenders++
		}
	}
	return 1 / float64(contenders+1)
}

// beaconsFor produces the beacons the client would gather, in the AP-ID
// order GatherBeacons pins, bit-identical to the reference: ATD re-folds the
// memoized delays over cfg.ClientsOf in the same order with the inquirer's
// delay first, K counts the inquirer, M comes from the closed-form trial.
func (e *assocEngine) beaconsFor(st *assocClient, ov *delayOverlay) []Beacon {
	out := make([]Beacon, 0, len(st.cands))
	for _, a32 := range st.cands {
		a := int(a32)
		ch := e.chans[a]
		du := e.delayOf(a, st, ch, ov)
		atd := du
		k := 1
		apID := e.apIDs[a]
		for _, id := range e.cfg.ClientsOf(apID) {
			if id == st.c.ID {
				continue
			}
			atd += e.delayOf(a, e.clients[id], ch, ov)
			k++
		}
		out = append(out, Beacon{APID: apID, Channel: ch, K: k, M: e.trialAccessShare(a, st), ATD: atd, DU: du})
	}
	if ov != nil {
		ov.stats.fastBeacons += len(out)
	} else {
		e.stats.fastBeacons += len(out)
	}
	return out
}

// associate runs Algorithm 1 for one client through the engine — the fast
// counterpart of Associate, bit-identical by construction (the decision rule
// itself is the shared AssociateFromBeacons). The caller applies the
// decision with applyHome.
func (e *assocEngine) associate(u *wlan.Client) AssociationDecision {
	st := e.ensureState(u)
	d := AssociateFromBeacons(u.ID, e.beaconsFor(st, nil))
	sort.Slice(d.Candidates, func(a, b int) bool { return d.Candidates[a].APID < d.Candidates[b].APID })
	return d
}

// vendEstimator hands Algorithm 2 an estimator backed by the engine's
// link caches: the reference SNRs and the per-(link, width) delay memo
// survive across reallocations instead of being re-measured each period. The
// estimator measures a link on its first read, like any other, against the
// engine's AP snapshot and the client incarnations recorded here; a client
// whose object changed since the last vend has its cached links purged
// first, so a stale incarnation's SNR is never read. The contention cache
// starts empty on purpose — it is association-dependent and must be fresh
// per run. The vended estimator's floats are identical to a NewEstimator's
// (same measurement expressions), so allocations are unchanged bit-for-bit.
func (e *assocEngine) vendEstimator() *Estimator {
	for _, c := range e.n.Clients {
		if old := e.snrDone[c.ID]; old != c {
			if old != nil {
				e.purgeLinks(c.ID)
			}
			e.snrDone[c.ID] = c
		}
	}
	return &Estimator{n: e.n, aps: e.apByID, clients: e.snrDone, snr20: e.snr20, delayMemo: e.widthDelay}
}
