package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acorn/internal/ratecontrol"
	"acorn/internal/rf"
	"acorn/internal/spectrum"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// TestClientPERUsesRequestedWidth pins the width handling of ClientPER: the
// reported PER must come from the rate a card would select *at the requested
// width* (calibrated SNR, width-matched MCS evaluation). A regression once
// calibrated the SNR for 40 MHz but then selected the rate as if on a 20 MHz
// channel, reporting the wrong residual PER for every bonded link.
func TestClientPERUsesRequestedWidth(t *testing.T) {
	n, clients := mixedNetwork()
	est := NewEstimator(n)

	for _, ap := range n.APs {
		for _, c := range clients {
			for _, w := range []spectrum.Width{spectrum.Width20, spectrum.Width40} {
				want := ratecontrol.Best(est.LinkSNR(ap.ID, c.ID, w), w, n.PacketBytes).PER
				if got := est.ClientPER(ap.ID, c.ID, w); got != want {
					t.Fatalf("ClientPER(%s, %s, %v) = %v, want %v", ap.ID, c.ID, w, got, want)
				}
			}
		}
	}

	// The pin above is only meaningful if width-mismatched selection can
	// actually change the reported PER; sweep the SNR range to show at least
	// one operating point where it does.
	discriminates := false
	for snr := -5.0; snr <= 45; snr += 0.25 {
		right := ratecontrol.Best(units.DB(snr), spectrum.Width40, n.PacketBytes).PER
		wrong := ratecontrol.Best(units.DB(snr), spectrum.Width20, n.PacketBytes).PER
		if right != wrong {
			discriminates = true
			break
		}
	}
	if !discriminates {
		t.Fatal("no SNR where width-mismatched rate selection changes the PER; the pin is vacuous")
	}
}

// denseLinks is the dense link-state oracle: the reference SNR of every
// (AP, client) pair, measured when it is built in slice order (so a
// duplicated ID keeps its last object), with the estimator's noise and
// width calibration applied on read.
type denseLinks struct {
	n     *wlan.Network
	snr20 map[linkKey]units.DB
	noise float64
}

func newDenseLinks(n *wlan.Network, noise float64) *denseLinks {
	d := &denseLinks{n: n, snr20: make(map[linkKey]units.DB, len(n.APs)*len(n.Clients)), noise: noise}
	for _, ap := range n.APs {
		for _, c := range n.Clients {
			d.snr20[linkKey{ap.ID, c.ID}] = n.ClientSNR20(ap, c)
		}
	}
	return d
}

func (d *denseLinks) linkSNR(apID, clientID string, w spectrum.Width) units.DB {
	snr, ok := d.snr20[linkKey{apID, clientID}]
	if !ok {
		return units.DB(math.Inf(-1))
	}
	if d.noise != 0 {
		snr += units.DB(d.noise * noiseUnit(apID, clientID))
	}
	return snrForWidth(snr, w)
}

func (d *denseLinks) selection(apID, clientID string, w spectrum.Width) ratecontrol.Selection {
	return ratecontrol.Best(d.linkSNR(apID, clientID, w), w, d.n.PacketBytes)
}

var estimatorTestChannels = []spectrum.Channel{spectrum.NewChannel20(36), spectrum.NewChannel40(36, 40)}

// checkLinks reads every (AP, client) pair of the given ID lists from est in
// a shuffled order, twice, and compares LinkSNR at both widths, ClientDelay
// on a channel of each width and ClientPER at both widths with the oracle.
func checkLinks(t *testing.T, tag string, est *Estimator, oracle *denseLinks, apIDs, clientIDs []string, rng *rand.Rand) {
	t.Helper()
	type pair struct{ ap, c string }
	pairs := make([]pair, 0, len(apIDs)*len(clientIDs))
	for _, a := range apIDs {
		for _, c := range clientIDs {
			pairs = append(pairs, pair{a, c})
		}
	}
	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs {
			for _, ch := range estimatorTestChannels {
				w := ch.Width
				got, want := est.LinkSNR(p.ap, p.c, w), oracle.linkSNR(p.ap, p.c, w)
				if got != want {
					t.Fatalf("%s: LinkSNR(%s, %s, %v) = %v, dense %v", tag, p.ap, p.c, w, got, want)
				}
				sel := oracle.selection(p.ap, p.c, w)
				if got, want := est.ClientDelay(p.ap, p.c, ch), 1/sel.GoodputMbps; got != want {
					t.Fatalf("%s: ClientDelay(%s, %s, %v) = %v, dense %v", tag, p.ap, p.c, ch, got, want)
				}
				if got, want := est.ClientPER(p.ap, p.c, w), sel.PER; got != want {
					t.Fatalf("%s: ClientPER(%s, %s, %v) = %v, dense %v", tag, p.ap, p.c, w, got, want)
				}
			}
		}
	}
}

// linkTestNetwork builds a random deployment for the link-state tests:
// geometric or measurement-driven (APs far apart, each client behind a wall
// calibrated to a random SNR, contention from a ContendOverride), with walls
// on some clients and, when dups is set, sometimes a duplicated AP and
// client ID.
func linkTestNetwork(rng *rand.Rand, override, dups bool) *wlan.Network {
	nAP := 3 + rng.Intn(6)
	aps := make([]*wlan.AP, nAP)
	for i := range aps {
		pos := rf.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		if override {
			pos = rf.Point{X: float64(i) * 10000}
		}
		aps[i] = &wlan.AP{ID: fmt.Sprintf("ap%02d", i), Pos: pos, TxPower: units.DBm(12 + rng.Intn(9))}
	}
	var clients []*wlan.Client
	for i := 0; i < 4+rng.Intn(16); i++ {
		home := aps[rng.Intn(nAP)]
		c := &wlan.Client{
			ID:  fmt.Sprintf("u%03d", i),
			Pos: rf.Point{X: home.Pos.X + rng.Float64()*40 - 20, Y: home.Pos.Y + rng.Float64()*40 - 20},
		}
		if override || rng.Intn(2) == 0 {
			c.ExtraLoss = map[string]units.DB{}
			for _, ap := range aps {
				if override && ap != home {
					continue
				}
				c.ExtraLoss[ap.ID] = units.DB(rng.Float64() * 50)
			}
		}
		clients = append(clients, c)
	}
	if dups && rng.Intn(3) == 0 {
		dup := *aps[rng.Intn(nAP)]
		dup.Pos = rf.Point{X: dup.Pos.X + 7, Y: dup.Pos.Y - 3}
		aps = append(aps, &dup)
		cd := *clients[rng.Intn(len(clients))]
		cd.Pos = rf.Point{X: cd.Pos.X - 4, Y: cd.Pos.Y + 9}
		clients = append(clients, &cd)
	}
	n := wlan.NewNetwork(aps, clients)
	if override {
		n.JitterDB = 0
		hears := map[[2]string]bool{}
		for i := 0; i < nAP; i++ {
			for j := i + 1; j < nAP; j++ {
				if rng.Intn(2) == 0 {
					hears[[2]string{aps[i].ID, aps[j].ID}] = true
					hears[[2]string{aps[j].ID, aps[i].ID}] = true
				}
			}
		}
		n.ContendOverride = func(a, b string) bool { return hears[[2]string{a, b}] }
	}
	return n
}

func linkIDs(n *wlan.Network) (apIDs, clientIDs []string) {
	for _, ap := range n.APs {
		apIDs = append(apIDs, ap.ID)
	}
	for _, c := range n.Clients {
		clientIDs = append(clientIDs, c.ID)
	}
	return apIDs, clientIDs
}

// TestEstimatorMeasuresOnDemandLikeDense checks the on-demand estimator
// against the dense snapshot it replaced, on random geometric and
// measurement-driven networks with and without measurement noise: every
// (AP, client) pair, read in random order, gives the same SNR, delay and
// PER. Unknown IDs read −Inf; a client appended after construction is
// unknown, and a client replaced after construction keeps the object the
// estimator was built with.
func TestEstimatorMeasuresOnDemandLikeDense(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		override := seed%2 == 0
		noise := 0.0
		if seed%3 == 0 {
			noise = 1.5
		}
		n := linkTestNetwork(rng, override, true)
		oracle := newDenseLinks(n, noise)
		est := NewEstimator(n)
		est.MeasurementNoiseDB = noise
		apIDs, clientIDs := linkIDs(n)

		// Change the network after construction: append a client, and
		// replace another with a new object under the same ID.
		n.Clients = append(n.Clients, &wlan.Client{ID: "late", Pos: n.APs[0].Pos})
		old := n.Clients[rng.Intn(len(n.Clients)-1)]
		n.RemoveClient(old.ID)
		n.Clients = append(n.Clients, &wlan.Client{ID: old.ID, Pos: rf.Point{X: old.Pos.X + 30, Y: old.Pos.Y}})

		tag := fmt.Sprintf("seed %d (override %v, noise %v)", seed, override, noise)
		checkLinks(t, tag, est, oracle, append(apIDs, "ghost-ap"), append(clientIDs, "late", "ghost"), rng)
		if got := est.LinkSNR(apIDs[0], "late", spectrum.Width20); !math.IsInf(float64(got), -1) {
			t.Fatalf("%s: client appended after construction reads %v, want -Inf", tag, got)
		}
	}
}

// TestVendedEstimatorsFollowReincarnations checks the association engine's
// vended estimators against a dense snapshot taken at each vend, while
// clients arrive, depart and reincarnate between vends — some through the
// engine (bind, evict), some only in the network — so a stale incarnation's
// SNR or delay must never be read.
func TestVendedEstimatorsFollowReincarnations(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := linkTestNetwork(rng, seed%2 == 0, false)
		cfg := wlan.NewConfig()
		for _, ap := range n.APs {
			cfg.Channels[ap.ID] = spectrum.NewChannel20(36)
		}
		for i, c := range n.Clients {
			if i%4 != 3 {
				cfg.SetAssoc(c.ID, n.APs[rng.Intn(len(n.APs))].ID)
			}
		}
		e := newAssocEngine(n, cfg)
		if e == nil {
			t.Fatalf("seed %d: engine rejected the fixture", seed)
		}
		next := len(n.Clients)
		for round := 0; round < 6; round++ {
			est := e.vendEstimator()
			noise := 0.0
			if round%3 == 2 {
				noise = 1.5 // noisy reads bypass the shared delay memo
			}
			est.MeasurementNoiseDB = noise
			apIDs, clientIDs := linkIDs(n)
			tag := fmt.Sprintf("seed %d round %d", seed, round)
			checkLinks(t, tag, est, newDenseLinks(n, noise), append(apIDs, "ghost-ap"), append(clientIDs, "ghost"), rng)

			// Reincarnate a few clients with new geometry, through the
			// engine on even rounds and in the network only on odd ones.
			for k := 0; k < 3; k++ {
				old := n.Clients[rng.Intn(len(n.Clients))]
				n.RemoveClient(old.ID)
				u := &wlan.Client{ID: old.ID, Pos: rf.Point{X: old.Pos.X + rng.Float64()*60 - 30, Y: old.Pos.Y + rng.Float64()*60 - 30}}
				n.Clients = append(n.Clients, u)
				if round%2 == 0 {
					e.ensureState(u)
				}
			}
			// One departure and one arrival per round.
			gone := n.Clients[rng.Intn(len(n.Clients))].ID
			e.evict(gone)
			n.RemoveClient(gone)
			home := n.APs[rng.Intn(len(n.APs))]
			n.Clients = append(n.Clients, &wlan.Client{ID: fmt.Sprintf("v%03d", next), Pos: rf.Point{X: home.Pos.X + 3, Y: home.Pos.Y + 4}})
			next++
		}
	}
}
