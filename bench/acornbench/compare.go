package main

// compare judges two sets of runs — typically the parent commit (A) and a
// change (B) — metric by metric, by the rule of the choosing-metrics guide:
// a gain needs the change to win nine tenths of the pairs and to move the
// median by more than A's own quartile spread; a regression is a median
// worse than A's by more than the metric's bound; a metric whose spread is
// wider than its bound is unresolved unless every B run beats every A run.

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func compareMain(args []string, w io.Writer) int {
	fset := flag.NewFlagSet("compare", flag.ExitOnError)
	fset.Usage = func() {
		fmt.Fprintln(fset.Output(), "usage: acornbench compare DIR_A DIR_B")
	}
	_ = fset.Parse(args)
	if fset.NArg() != 2 {
		fset.Usage()
		return 2
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acornbench compare:", err)
		return 1
	}
	a, err := loadRuns(fset.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "acornbench compare:", err)
		return 1
	}
	b, err := loadRuns(fset.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "acornbench compare:", err)
		return 1
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-16s %34s %34s %8s %5s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "win", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, mm := range m.EndToEnd {
			va, vb := values(ra, mm.Name), values(rb, mm.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(mm, va, vb)
			regressed = regressed || c.verdict == "regressed"
			fmt.Fprintf(w, "%-16s %-16s %34s %34s %+7.1f%% %5.2f  %s (n=%d/%d)\n", wl.name, mm.Name,
				fmtQuartiles(c.qa), fmtQuartiles(c.qb), 100*c.change, c.win, c.verdict, len(va), len(vb))
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// loadRuns reads every untraced result file under dir, by workload.
func loadRuns(dir string) (map[string][]*result, error) {
	out := map[string][]*result{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		r, err := readResult(path)
		if err != nil {
			return err
		}
		if r.Meta.Workload != "" && !r.Meta.Traced {
			out[r.Meta.Workload] = append(out[r.Meta.Workload], r)
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no untraced result files under %s", dir)
	}
	return out, err
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if x, ok := r.Metrics[name]; ok {
			out = append(out, x.Value)
		}
	}
	return out
}

// comparison is the verdict on one workload × metric.
type comparison struct {
	qa, qb  [3]float64 // quartiles; [1] is the median
	change  float64    // (B − A) / A of the medians
	win     float64    // share of (A, B) run pairs B wins; ties count for neither
	verdict string
}

func judge(mm manifestMetric, a, b []float64) comparison {
	c := comparison{qa: quartiles(a), qb: quartiles(b)}
	better := func(x, y float64) bool { // x better than y
		if mm.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, allBetter := 0, true
	for _, x := range a {
		for _, y := range b {
			if better(y, x) {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	c.win = float64(wins) / float64(len(a)*len(b))
	medA, medB := c.qa[1], c.qb[1]
	c.change = ratio(medB-medA, medA)
	worse := c.change
	if mm.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(c.qa[2]-c.qa[0], medA), ratio(c.qb[2]-c.qb[0], medB))
	switch {
	case c.win >= 0.9 && better(medB, medA) && math.Abs(medB-medA) > c.qa[2]-c.qa[0]:
		c.verdict = "improved"
	case worse > mm.Bound:
		c.verdict = "regressed"
	case spread > mm.Bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q[1], q[0], q[2])
}
