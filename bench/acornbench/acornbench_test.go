package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets coldSetups re-execute the test binary as its set-up child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "setup" {
		os.Exit(setupMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// toyConfig is every workload at toy scale: 32 APs, a 1 s phase, 200
// campus events and a single set-up.
func toyConfig(workload string) config {
	return config{Workload: workload, Seed: 7, Seconds: 1, APs: 32, CampusAPs: 32, Events: 200, Setups: 1}
}

// printedMetrics parses the "workload metric value unit" lines of out and
// checks that its last line is the summary object.
func printedMetrics(t *testing.T, out string) map[string]float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var summary struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, out)
	}
	if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 {
		t.Errorf("summary: correct=%v attempted=%d failed=%d", summary.Correct, summary.Attempted, summary.Failed)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(strings.Join(lines[:len(lines)-1], "\n")))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 {
			t.Fatalf("malformed metric line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", sc.Text(), err)
		}
		got[f[1]] = v
	}
	return got
}

func checkPrinted(t *testing.T, got map[string]float64, want []manifestMetric) {
	t.Helper()
	for _, mm := range want {
		v, ok := got[mm.Name]
		if !ok {
			t.Errorf("%s not printed", mm.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", mm.Name, v)
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload traced at toy scale and
// checks that every metric BENCHMARK.json names is printed with a finite
// value: the per-layer set by the traced run itself, the end-to-end set
// from the result file it wrote.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := toyConfig(wl.name)
			cfg.Traced = true
			var out bytes.Buffer
			if code := runOne(cfg, m, dir, &out); code != 0 {
				t.Fatalf("exit code %d\n%s", code, out.String())
			}
			checkPrinted(t, printedMetrics(t, out.String()), m.PerLayer)

			r, err := readResult(filepath.Join(dir, wl.name+".traced.json"))
			if err != nil {
				t.Fatal(err)
			}
			r.Meta.Traced = false
			out.Reset()
			summary, err := printResult(&out, r, m)
			if err != nil {
				t.Fatal(err)
			}
			out.WriteString(summary + "\n")
			checkPrinted(t, printedMetrics(t, out.String()), m.EndToEnd)
		})
	}
}

// TestCampusDeterministic pins that the campus workload is a pure function
// of its seed: the final configuration's goodput and the stream's switch
// and no-op counts repeat exactly.
func TestCampusDeterministic(t *testing.T) {
	var runs [2]*result
	for i := range runs {
		cfg := toyConfig("campus-stream")
		cfg.Traced = true // the per-layer counts are reported in traced mode
		r, err := runCampus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	for _, name := range []string{"goodput_mbps", "core.stream.switches", "core.stream.noop_skips"} {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b {
			t.Errorf("%s differs between same-seed runs: %v vs %v", name, a, b)
		}
	}
	if runs[0].Metrics["core.stream.noop_skips"].Value == 0 {
		t.Error("no event took the no-op path")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := manifestMetric{Name: "applied_p50_ms", Better: "lower", Bound: 0.10}
	cases := []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 80, 82}, "improved"},
		{[]float64{100, 101, 99, 100, 102}, []float64{120, 121, 119, 120, 122}, "regressed"},
		{[]float64{100, 101, 99, 100, 102}, []float64{101, 100, 102, 99, 100}, "unchanged"},
		{[]float64{60, 140, 100, 70, 130}, []float64{65, 135, 105, 75, 125}, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(lower, c.a, c.b).verdict; got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestColdSetupsRunInChildren(t *testing.T) {
	for _, w := range []string{"fleet-reconnect", "campus-stream"} {
		got, err := coldSetups(toyConfig(w), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !(got[0] > 0) {
			t.Errorf("%s: cold set-ups = %v, want one positive time", w, got)
		}
	}
}
