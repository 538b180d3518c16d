package core

// Spatial candidate pruning for the contention-graph builders (the PR-9
// tentpole; DESIGN.md §15).
//
// wlan.Network.Contend is a geometric predicate: two cells contend only if
// some transmitter of one is received above CSThreshold at some point of
// the other (AP↔AP, or an AP against the other cell's clients). The
// propagation model is monotone in distance, so every check that can pass
// does so within the carrier-sense radius of the strongest transmitter in
// play (rf.CarrierSenseRange). A uniform grid over all points of the
// populated cells — each AP position and each associated client position,
// tagged with its owner cell — therefore yields a conservative candidate
// superset: query the grid around each populated AP with the global cutoff
// radius, and any pair the queries never surface provably fails every
// check of contendPair. Candidates still go through the exact predicate,
// so the resulting graph is boolean-identical to the O(P²) scan by
// construction — the equivalence suite pins neighbor lists with == on the
// full adjacency.
//
// The prune degrades to the exact full scan whenever no sound cutoff
// exists: a ContendOverride (arbitrary predicate, no geometry), a
// non-invertible propagation model, a non-finite cutoff, or the full-scan
// reference build that only tests ask for (AllocOptions.noSpatialIndex).

import (
	"math"
	"sort"

	"acorn/internal/geo"
	"acorn/internal/wlan"
)

// spatialCandidates returns, for each position a in popIdx order, the
// ascending list of global AP indices j > popIdx[a] whose pair may contend
// with popIdx[a] (a conservative superset). scanned is the total candidate
// pair count. ok=false means no sound cutoff exists and the caller must run
// the full scan.
func spatialCandidates(n *wlan.Network, popIdx []int, clientsOf [][]*wlan.Client, opts AllocOptions) (rows [][]int32, scanned int, ok bool) {
	if opts.noSpatialIndex || n.ContendOverride != nil || len(popIdx) < 2 {
		return nil, 0, false
	}
	maxTx := n.APs[popIdx[0]].TxPower
	for _, i := range popIdx[1:] {
		if tx := n.APs[i].TxPower; tx > maxTx {
			maxTx = tx
		}
	}
	cutoff, invertible := n.Prop.CarrierSenseRange(maxTx, n.CSThreshold)
	if !invertible || math.IsInf(cutoff, 1) || math.IsNaN(cutoff) {
		return nil, 0, false
	}
	cell := opts.gridCellM
	if cell <= 0 {
		cell = cutoff
	}

	// One grid over every point of every populated cell, tagged with the
	// owner's position in popIdx. Client positions matter as much as AP
	// positions: the client-mediated checks of contendPair fire when a
	// *client* of one cell sits within the cutoff of the other cell's AP.
	p := len(popIdx)
	grid := geo.NewGrid(cell)
	for a, i := range popIdx {
		ap := n.APs[i]
		grid.Add(int32(a), ap.Pos.X, ap.Pos.Y)
		for _, cl := range clientsOf[i] {
			grid.Add(int32(a), cl.Pos.X, cl.Pos.Y)
		}
	}

	// Query around each populated AP. A hit in either direction marks the
	// unordered pair, deduplicated with a per-query generation stamp; the
	// pair lands in the lower index's row so the caller's (a, j > i) scan
	// visits each pair exactly once, in the oracle's order.
	rows = make([][]int32, p)
	stamp := make([]int, p)
	for a := range stamp {
		stamp[a] = -1
	}
	for a, i := range popIdx {
		ap := n.APs[i]
		grid.VisitWithin(ap.Pos.X, ap.Pos.Y, cutoff, func(owner int32) {
			b := int(owner)
			if b == a || stamp[b] == a {
				return
			}
			stamp[b] = a
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			rows[lo] = append(rows[lo], int32(popIdx[hi]))
		})
	}
	for a := range rows {
		row := rows[a]
		sort.Slice(row, func(x, y int) bool { return row[x] < row[y] })
		// Both queries of a pair can mark it (a sees b's point, b sees
		// a's): drop duplicates after the sort.
		w := 0
		for r := range row {
			if r == 0 || row[r] != row[r-1] {
				row[w] = row[r]
				w++
			}
		}
		rows[a] = row[:w]
		scanned += w
	}
	return rows, scanned, true
}

// totalPairs is the pair count of the full O(P²) scan over p populated
// cells — the denominator of the pruning stats.
func totalPairs(p int) int { return p * (p - 1) / 2 }
