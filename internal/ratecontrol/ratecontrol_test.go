package ratecontrol

import (
	"math"
	"sync"
	"testing"

	"acorn/internal/phy"
	"acorn/internal/spectrum"
	"acorn/internal/units"
)

func TestBestPicksRobustAtLowSNR(t *testing.T) {
	sel := Best(0, spectrum.Width20, 1500)
	if sel.MCS.Index > 1 {
		t.Errorf("at 0 dB expected MCS 0–1, got %v", sel.MCS)
	}
	if sel.Mode != phy.STBC {
		t.Errorf("poor link should use STBC, got %v", sel.Mode)
	}
}

func TestBestPicksSDMAtHighSNR(t *testing.T) {
	sel := Best(30, spectrum.Width20, 1500)
	if sel.Mode != phy.SDM {
		t.Errorf("strong link should use SDM, got %v", sel.Mode)
	}
	if sel.MCS.Index != 15 {
		t.Errorf("strong link should reach MCS 15, got %v", sel.MCS)
	}
	if sel.PER > 0.01 {
		t.Errorf("strong link PER = %v, want ≈0", sel.PER)
	}
}

func TestBestGoodputMonotoneInSNR(t *testing.T) {
	prev := -1.0
	for snr := units.DB(-10); snr <= 35; snr++ {
		g := Best(snr, spectrum.Width20, 1500).GoodputMbps
		if g < prev-1e-6 {
			t.Fatalf("goodput decreased at %v dB: %v < %v", snr, g, prev)
		}
		prev = g
	}
}

func TestBestMCSMonotoneInSNRRoughly(t *testing.T) {
	// The selected MCS ladder should climb with SNR; allow plateaus and
	// mode-switch dips but the final selection must be the top MCS.
	low := Best(-2, spectrum.Width20, 1500).MCS.Index
	high := Best(28, spectrum.Width20, 1500).MCS.Index
	if low >= high {
		t.Errorf("MCS should climb with SNR: %d → %d", low, high)
	}
}

func TestDeadLinkReportsRobustSelection(t *testing.T) {
	sel := Best(-20, spectrum.Width20, 1500)
	// Dead links bottom out at the MAC delay cap (1 kbit/s equivalent).
	if sel.GoodputMbps > 0.01 {
		t.Errorf("dead link goodput = %v, want ≈0", sel.GoodputMbps)
	}
	if sel.PER < 0.99 {
		t.Errorf("dead link PER = %v, want ≈1", sel.PER)
	}
}

func TestOptimalFixedMCSFig6bShape(t *testing.T) {
	// Fig 6(b): the optimal MCS with 40 MHz is almost always less
	// aggressive (≤) than with 20 MHz for the same link.
	for snr := units.DB(-2); snr <= 30; snr += 2 {
		b20, b40 := OptimalFixedMCS(snr, 1500)
		// Compare within the same stream count by folding MCS 8–15
		// onto 0–7 plus stream info; the raw index comparison is the
		// paper's, so use it but tolerate equal stream jumps.
		if b40.MCS.Index > b20.MCS.Index {
			t.Errorf("at %v dB optimal 40 MHz MCS %d more aggressive than 20 MHz MCS %d",
				snr, b40.MCS.Index, b20.MCS.Index)
		}
	}
}

func TestOptimal40NeverMoreThanDoubleGoodput(t *testing.T) {
	// Section 3.2: throughput with CB is almost always "less than
	// double" that without CB.
	for snr := units.DB(0); snr <= 35; snr++ {
		b20, b40 := OptimalFixedMCS(snr, 1500)
		if b20.GoodputMbps > 0 && b40.GoodputMbps > 2*b20.GoodputMbps {
			t.Errorf("at %v dB CB more than doubles goodput: %v vs %v",
				snr, b40.GoodputMbps, b20.GoodputMbps)
		}
	}
}

func TestCBHurtsPoorLinks(t *testing.T) {
	// Around the decode floor, 20 MHz must win (the σ ≥ 2 regime).
	b20, b40 := OptimalFixedMCS(-1, 1500)
	if b40.GoodputMbps >= b20.GoodputMbps {
		t.Errorf("poor link: 40 MHz goodput %v should lose to 20 MHz %v",
			b40.GoodputMbps, b20.GoodputMbps)
	}
}

func TestCBHelpsGoodLinks(t *testing.T) {
	b20, b40 := OptimalFixedMCS(25, 1500)
	if b40.GoodputMbps <= 1.3*b20.GoodputMbps {
		t.Errorf("good link: 40 MHz goodput %v should clearly beat 20 MHz %v",
			b40.GoodputMbps, b20.GoodputMbps)
	}
}

func TestEvaluateModeAssignment(t *testing.T) {
	m0, _ := phy.MCSByIndex(0)
	m8, _ := phy.MCSByIndex(8)
	if s := Evaluate(m0, 10, spectrum.Width20, 1500); s.Mode != phy.STBC {
		t.Errorf("single-stream MCS should evaluate as STBC, got %v", s.Mode)
	}
	if s := Evaluate(m8, 10, spectrum.Width20, 1500); s.Mode != phy.SDM {
		t.Errorf("two-stream MCS should evaluate as SDM, got %v", s.Mode)
	}
}

func TestAutoRateHysteresis(t *testing.T) {
	ar := NewAutoRate(spectrum.Width20, 1500)
	s1 := ar.Update(10)
	// A sub-hysteresis wiggle must not change the selection object.
	s2 := ar.Update(10.5)
	if s1 != s2 {
		t.Error("selection changed within hysteresis band")
	}
	// A large jump re-evaluates.
	s3 := ar.Update(28)
	if s3.MCS.Index <= s1.MCS.Index {
		t.Errorf("selection should climb after big SNR jump: %v → %v", s1.MCS, s3.MCS)
	}
	// Dropping back re-evaluates again.
	s4 := ar.Update(0)
	if s4.MCS.Index >= s3.MCS.Index {
		t.Error("selection should fall after SNR collapse")
	}
}

func TestShortGI(t *testing.T) {
	// On a strong link the short GI's ~11% rate bump wins.
	long := Best(30, spectrum.Width40, 1500)
	both := BestGI(30, spectrum.Width40, 1500)
	if !both.ShortGI {
		t.Errorf("strong link should choose short GI (goodput %v vs long-GI %v)",
			both.GoodputMbps, long.GoodputMbps)
	}
	if both.GoodputMbps <= long.GoodputMbps {
		t.Errorf("short GI goodput %v not above long GI %v", both.GoodputMbps, long.GoodputMbps)
	}
	// BestGI never does worse than Best.
	for snr := units.DB(-4); snr <= 32; snr += 4 {
		if BestGI(snr, spectrum.Width20, 1500).GoodputMbps+1e-9 < Best(snr, spectrum.Width20, 1500).GoodputMbps {
			t.Fatalf("BestGI regressed at %v dB", snr)
		}
	}
	// The nominal-rate bump is ≈11%.
	m, _ := phy.MCSByIndex(15)
	longR := EvaluateGI(m, 35, spectrum.Width40, 1500, false).RateMbps
	shortR := EvaluateGI(m, 35, spectrum.Width40, 1500, true).RateMbps
	if ratio := shortR / longR; ratio < 1.10 || ratio > 1.12 {
		t.Errorf("short-GI rate ratio = %v, want ≈1.11", ratio)
	}
}

// bestExhaustive is the unpruned search Best ran before the goodput-bound
// pruning: evaluate every MCS in table order, keep the first strict
// maximum, fall back to MCS 0 when nothing decodes.
func bestExhaustive(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	var best Selection
	for _, m := range phy.MCSTable() {
		s := Evaluate(m, snr, w, packetBytes)
		if s.GoodputMbps > best.GoodputMbps {
			best = s
		}
	}
	if best.GoodputMbps == 0 {
		best = Evaluate(phy.MCSTable()[0], snr, w, packetBytes)
	}
	return best
}

// TestBestSearchMatchesExhaustive pins the pruned search to the exhaustive
// one, whole Selection compared, across both widths, three packet sizes and
// an SNR sweep whose irregular step lands on many points between the MCS
// crossovers, plus the non-finite SNRs.
func TestBestSearchMatchesExhaustive(t *testing.T) {
	snrs := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	step := 0.0251
	if testing.Short() {
		step = 0.251
	}
	for snr, k := -20.0, 0; snr <= 60; k++ {
		snrs = append(snrs, snr)
		snr += step * (1 + 0.37*float64(k%5))
	}
	for i := -20; i <= 60; i++ {
		snrs = append(snrs, float64(i))
	}
	points := 0
	for _, w := range []spectrum.Width{spectrum.Width20, spectrum.Width40} {
		for _, size := range []int{100, 1000, 1500} {
			for _, snr := range snrs {
				got, want := bestSearch(units.DB(snr), w, size), bestExhaustive(units.DB(snr), w, size)
				if !sameSelection(got, want) {
					t.Fatalf("snr %v, width %v, %d B: pruned %+v, exhaustive %+v", snr, w, size, got, want)
				}
				points++
			}
		}
	}
	t.Logf("%d points identical", points)
}

// sameSelection is == on Selection, except that NaN equals NaN.
func sameSelection(a, b Selection) bool {
	if math.IsNaN(a.PER) && math.IsNaN(b.PER) {
		a.PER, b.PER = 0, 0
	}
	return a == b
}

// TestBestMemoStaysBounded fills the Best memo past its cap and checks that
// it never holds more than bestCacheCap entries and that a dropped entry
// recomputes to the same Selection. It then crosses the cap again from
// several goroutines at once, which must return the same selections as the
// unmemoized search (run it under -race).
func TestBestMemoStaysBounded(t *testing.T) {
	first := Best(60, spectrum.Width20, 1500)
	// High SNRs: the pruned search evaluates one or two MCSs per miss.
	key := func(k int) units.DB { return units.DB(61 + float64(k)*1e-6) }
	for k := 0; k <= bestCacheCap+100; k++ {
		Best(key(k), spectrum.Width20, 1500)
		if n := bestCache.Load().n.Load(); n > bestCacheCap {
			t.Fatalf("memo holds %d entries after %d inserts, cap %d", n, k+1, bestCacheCap)
		}
	}
	if n := bestCache.Load().n.Load(); n > 200 {
		t.Fatalf("memo holds %d entries; it should have been dropped at the cap", n)
	}
	if again := Best(60, spectrum.Width20, 1500); again != first {
		t.Fatalf("recomputed selection %+v differs from the memoized %+v", again, first)
	}

	for k := 0; bestCache.Load().n.Load() < bestCacheCap-400; k++ {
		Best(key(-1-k), spectrum.Width20, 1500)
	}
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				snr := units.DB(70 + float64(w*perWorker+k)*1e-6)
				if got, want := Best(snr, spectrum.Width20, 1500), bestSearch(snr, spectrum.Width20, 1500); got != want {
					t.Errorf("concurrent Best(%v) = %+v, want %+v", snr, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bestCache.Load().n.Load(); n > bestCacheCap {
		t.Fatalf("memo holds %d entries after concurrent inserts, cap %d", n, bestCacheCap)
	}
}
