// Command acornbench is the repository's end-to-end benchmark. It drives
// the real ACORN controller through public APIs only — the networked path
// (ctlnet.Server plus ctlnet.ReconnectingAgent) and the in-process path
// (core.StreamController) — on three fixed workloads, and reports the
// end-to-end and per-layer metrics named in BENCHMARK.json. See
// bench/README.md for the workloads, the metric catalogue and how to run
// and compare it.
//
// Usage:
//
//	acornbench [-workload all|fleet-steady|fleet-reconnect|campus-stream]
//	           [-seed N] [-seconds N] [-trace 0|1] [-out DIR]
//	acornbench compare DIR_A DIR_B
//
// A workload also runs "acornbench setup -workload W -seed N" children,
// each of which times one set-up in a fresh process and prints it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner and its set-up, in
// reporting order.
var workloads = []struct {
	name  string
	run   func(config) (*result, error)
	setup func(config) (time.Duration, error)
}{
	{"fleet-steady", runFleetSteady, setupFleet},
	{"fleet-reconnect", runFleetReconnect, setupFleet},
	{"campus-stream", runCampus, setupCampus},
}

// config is one workload run. The scale fields exist so the smoke test
// can run the same code at toy size.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Traced   bool

	APs       int // fleet size
	CampusAPs int // campus size, over campusBuildings buildings
	Events    int // campus events; 0 means campusEventRate per second
	Setups    int // cold set-ups per untraced run; setup_s is their median
}

func defaultConfig() config {
	return config{Seed: 1, Seconds: 20, APs: 1000, CampusAPs: 400, Setups: 3}
}

func (c config) phase() time.Duration { return time.Duration(c.Seconds) * time.Second }

func (c config) events() int {
	if c.Events > 0 {
		return c.Events
	}
	return campusEventRate * c.Seconds
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "setup":
			os.Exit(setupMain(os.Args[2:]))
		}
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("acornbench", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run: all, fleet-steady, fleet-reconnect or campus-stream")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "seed every input is generated from")
	fs.IntVar(&cfg.Seconds, "seconds", cfg.Seconds, "length of the measured phase")
	fs.BoolVar(&cfg.Traced, "trace", false, "attach the tracers and report the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join("build", "acornbench"), "directory the result files are written to")
	_ = fs.Parse(joinTraceArg(os.Args[1:]))
	if cfg.Seconds < 1 {
		fmt.Fprintln(os.Stderr, "acornbench: -seconds must be at least 1")
		os.Exit(2)
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acornbench:", err)
		os.Exit(1)
	}
	if *workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	cfg.Workload = *workload
	os.Exit(runOne(cfg, m, *out, os.Stdout))
}

// joinTraceArg rewrites "-trace 0" and "-trace 1" into "-trace=0" and
// "-trace=1": a boolean flag takes its value only after "=", and the
// BENCHMARK.json calling convention passes it as a separate argument.
func joinTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runAll runs every workload in its own child process, so heap, GC and
// peak RSS are per workload.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "acornbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "acornbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runOne runs one workload in this process, writes its result file, and
// prints its metrics: one "workload metric value unit" line each, then the
// summary JSON object as the last line. It returns the exit code: 0 only
// when every correctness gate held.
func runOne(cfg config, m *manifest, outDir string, w io.Writer) int {
	var run func(config) (*result, error)
	for _, wl := range workloads {
		if wl.name == cfg.Workload {
			run = wl.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "acornbench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	var setups []float64
	if !cfg.Traced {
		// All but the last set-up run in children, so each starts with the
		// process-wide caches (the rate-control memo among them) as cold as
		// the measured one does.
		var err error
		if setups, err = coldSetups(cfg, cfg.Setups-1); err != nil {
			fmt.Fprintf(os.Stderr, "acornbench: %s: %v\n", cfg.Workload, err)
			return 1
		}
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acornbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if !cfg.Traced {
		r.set("setup_s", median(append(setups, r.Metrics["setup_s"].Value)), "s")
	}
	r.Meta.GitSHA, r.Meta.GitDirty = gitState()
	if cfg.Traced {
		setTraceOverhead(r, filepath.Join(outDir, cfg.Workload+".json"))
	}
	if path, err := writeResult(outDir, r); err != nil {
		fmt.Fprintln(os.Stderr, "acornbench:", err)
	} else {
		fmt.Fprintln(os.Stderr, "acornbench: wrote", path)
	}
	summary, err := printResult(w, r, m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acornbench:", err)
		return 1
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "acornbench: %s: correctness gate failed: %s\n", cfg.Workload, f)
	}
	fmt.Fprintln(w, summary)
	if !r.Correct {
		return 1
	}
	return 0
}

// extraMetrics are printed beside the manifest's metrics but stay out of
// the summary: fail_frac is already the summary's failed ÷ attempted, and
// the tracing overhead needs an untraced run of the same seed.
var extraMetrics = map[bool][]string{false: {"fail_frac"}, true: {"trace.overhead_p50"}}

// printResult writes the metric lines of r for its mode and returns the
// summary JSON line.
func printResult(w io.Writer, r *result, m *manifest) (string, error) {
	type summary struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	s := summary{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]metric{}}
	for _, mm := range m.metrics(r.Meta.Traced) {
		v, err := r.value(mm)
		if err != nil {
			return "", err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", mm.Name, v)
		}
		s.Metrics[mm.Name] = metric{Value: v, Unit: mm.Unit}
		fmt.Fprintf(w, "%s %s %v %s\n", r.Meta.Workload, mm.Name, v, mm.Unit)
	}
	for _, name := range extraMetrics[r.Meta.Traced] {
		if x, ok := r.Metrics[name]; ok {
			fmt.Fprintf(w, "%s %s %v %s\n", r.Meta.Workload, name, x.Value, x.Unit)
		}
	}
	data, err := json.Marshal(s)
	return string(data), err
}

// setTraceOverhead compares a traced run's median latency with the
// untraced result of the same workload and seed, when one was written.
func setTraceOverhead(r *result, untracedPath string) {
	base, err := readResult(untracedPath)
	if err != nil || base.Meta.Traced || base.Meta.Seed != r.Meta.Seed || base.Meta.Seconds != r.Meta.Seconds {
		return
	}
	if u := base.Metrics["applied_p50_ms"].Value; u > 0 {
		r.set("trace.overhead_p50", r.Metrics["applied_p50_ms"].Value/u-1, "ratio")
	}
}

// coldSetups times n set-ups of cfg's workload, each in a fresh child
// process, one after another.
func coldSetups(cfg config, n int) ([]float64, error) {
	if n <= 0 {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "setup", "-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-aps", strconv.Itoa(cfg.APs), "-campus-aps", strconv.Itoa(cfg.CampusAPs))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupMain is the set-up child: it times one set-up of a workload and
// prints it in seconds.
func setupMain(args []string) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("setup", flag.ExitOnError)
	fs.StringVar(&cfg.Workload, "workload", "", "workload to set up")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "seed every input is generated from")
	fs.IntVar(&cfg.APs, "aps", cfg.APs, "fleet size")
	fs.IntVar(&cfg.CampusAPs, "campus-aps", cfg.CampusAPs, "campus size")
	_ = fs.Parse(args)
	for _, wl := range workloads {
		if wl.name == cfg.Workload {
			d, err := wl.setup(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "acornbench setup: %s: %v\n", cfg.Workload, err)
				return 1
			}
			fmt.Println(d.Seconds())
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "acornbench setup: unknown workload %q\n", cfg.Workload)
	return 2
}
