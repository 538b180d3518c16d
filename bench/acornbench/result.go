package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"acorn/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta identifies the code and machine a result was measured on.
type meta struct {
	Workload   string    `json:"workload"`
	Traced     bool      `json:"traced"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	GitSHA     string    `json:"git_sha"`
	GitDirty   bool      `json:"git_dirty"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Started    time.Time `json:"started"`
}

// result is everything one workload run measured. Failures lists the
// correctness gates that did not hold; Correct is true when it is empty.
type result struct {
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	// idle names the metric prefixes of layers this workload never runs;
	// their metrics print as 0 instead of counting as missing.
	idle []string
}

func newResult(cfg config) *result {
	return &result{
		Meta: meta{
			Workload:   cfg.Workload,
			Traced:     cfg.Traced,
			Seed:       cfg.Seed,
			Seconds:    cfg.Seconds,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Started:    time.Now().UTC(),
		},
		Correct: true,
		Metrics: map[string]metric{},
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// ms records a duration in milliseconds.
func (r *result) ms(name string, d time.Duration) {
	r.set(name, float64(d)/float64(time.Millisecond), "ms")
}

// gate records a failed correctness gate.
func (r *result) gate(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// value returns the metric the manifest names, 0 for a layer the workload
// never runs, or an error when the workload should have produced it.
func (r *result) value(m manifestMetric) (float64, error) {
	if got, ok := r.Metrics[m.Name]; ok {
		if got.Unit != m.Unit {
			return 0, fmt.Errorf("metric %s measured in %s, manifest says %s", m.Name, got.Unit, m.Unit)
		}
		return got.Value, nil
	}
	for _, p := range r.idle {
		if strings.HasPrefix(m.Name, p) {
			return 0, nil
		}
	}
	return 0, fmt.Errorf("workload %s did not measure %s", r.Meta.Workload, m.Name)
}

// setEndToEnd records the metrics every workload shares once its phase and
// final checks are done: latency quantiles, failure share, peak RSS and
// live heap. heap_live_mb is taken here, so the caller must still hold the
// quiescent workload.
func (r *result) setEndToEnd(samples []time.Duration, setup time.Duration) {
	r.set("setup_s", setup.Seconds(), "s")
	r.ms("applied_p50_ms", quantileDur(samples, 0.50))
	r.ms("applied_p99_ms", quantileDur(samples, 0.99))
	r.set("fail_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("rss_peak_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}
}

// phaseClock samples process CPU and the Go runtime at the start of a
// measured phase, so their deltas cover exactly that phase.
type phaseClock struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

// startPhase collects garbage first, so every phase starts at the same
// point of the collector's cycle: how many collections land inside the
// phase, and the stalls and CPU they cost, then depend on the phase's own
// allocation and not on where set-up happened to leave the heap.
func startPhase() *phaseClock {
	runtime.GC()
	p := &phaseClock{}
	runtime.ReadMemStats(&p.mem)
	p.cpu = processCPU()
	p.start = time.Now()
	return p
}

// stop records the phase's CPU per operation and Go runtime deltas. ops is
// the number of operations attempted during the phase.
func (p *phaseClock) stop(r *result, ops int) {
	cpu := processCPU() - p.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(max(ops, 1))
	r.set("cpu_us_per_op", float64(cpu)/float64(time.Microsecond)/n, "us")
	r.set("go.gc_cycles", float64(mem.NumGC-p.mem.NumGC), "count")
	r.ms("go.gc_pause_ms", time.Duration(mem.PauseTotalNs-p.mem.PauseTotalNs))
	r.set("go.alloc_kb_per_op", float64(mem.TotalAlloc-p.mem.TotalAlloc)/1024/n, "KiB")
	r.set("go.goroutines", float64(runtime.NumGoroutine()), "count")
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantileDur is the p-quantile of samples with linear interpolation
// between order statistics; 0 when there are none.
func quantileDur(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[hi]-s[lo]))
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxDur is the largest of samples (0 when empty).
func maxDur(samples []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range samples {
		m = max(m, d)
	}
	return m
}

// regSnap flattens a registry snapshot into name → value: counters and
// gauges by name, labelled families summed over their children, and
// histograms as <name>_count and <name>_sum.
type regSnap map[string]float64

func snapshot(reg *obs.Registry) regSnap {
	out := regSnap{}
	for _, s := range reg.Snapshot() {
		switch {
		case s.Value != nil:
			out[s.Name] = *s.Value
		case s.Series != nil:
			var sum float64
			for _, v := range s.Series {
				sum += v
			}
			out[s.Name] = sum
		case s.Count != nil:
			out[s.Name+"_count"] = float64(*s.Count)
			out[s.Name+"_sum"] = *s.Sum
		}
	}
	return out
}

// delta is how far name moved between two snapshots.
func delta(before, after regSnap, name string) float64 { return after[name] - before[name] }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setAllocMetrics records the Algorithm 2, association-engine and
// contention-graph counters a phase moved in reg.
func setAllocMetrics(r *result, before, after regSnap) {
	d := func(name string) float64 { return delta(before, after, name) }
	r.set("core.alloc.rank_evals", d("acorn_core_alloc_rank_evals_total"), "count")
	r.set("core.alloc.delta_evals", d("acorn_core_alloc_delta_evals_total"), "count")
	r.set("core.alloc.full_evals", d("acorn_core_alloc_full_evals_total"), "count")
	r.set("core.alloc.fallbacks", d("acorn_core_alloc_fallbacks_total"), "count")
	r.set("core.alloc.partition_reuses", d("acorn_core_alloc_partition_reuses_total"), "count")
	hits := d("acorn_core_alloc_rank_cache_hits_total")
	r.set("core.alloc.rank_cache_hit_ratio", ratio(hits, hits+d("acorn_core_alloc_rank_evals_total")), "ratio")
	r.set("core.assoc.engine_builds", d("acorn_core_assoc_engine_builds_total"), "count")
	memoHits := d("acorn_core_assoc_delay_memo_hits_total")
	r.set("core.assoc.memo_hit_ratio", ratio(memoHits, memoHits+d("acorn_core_assoc_delay_memo_misses_total")), "ratio")
	r.set("core.partition.rebuilds", d("acorn_core_partition_rebuilds_total"), "count")
	r.set("core.graph.candidate_ratio", after["acorn_core_graph_candidate_ratio"], "ratio")
}

// spanStats summarizes a tracer's spans: the mean milliseconds per span of
// each stage and attribution, the mean attribution counts, and the totals.
type spanStats struct {
	spans  []obs.SpanView
	stages map[string]float64
	attrs  map[string]float64
	counts map[string]float64
	totals []time.Duration
}

// summarizeSpans summarizes the finished spans that started at or after
// since. It gates the tracer's own invariants: no dropped span, and every
// span's stages summing exactly to its total.
func summarizeSpans(r *result, t *obs.Tracer, since time.Time) spanStats {
	st := spanStats{stages: map[string]float64{}, attrs: map[string]float64{}, counts: map[string]float64{}}
	if d := t.Dropped(); d != 0 {
		r.gate("tracer dropped %d spans", d)
	}
	for _, sv := range t.Snapshot(0) {
		if sv.Start.Before(since) {
			continue
		}
		var sum int64
		for _, ns := range sv.Stages {
			sum += ns
		}
		if sum != sv.TotalNs {
			r.gate("span %d (%s): stages sum to %d ns, total is %d ns", sv.ID, sv.Kind, sum, sv.TotalNs)
		}
		st.spans = append(st.spans, sv)
		st.totals = append(st.totals, time.Duration(sv.TotalNs))
		for k, ns := range sv.Stages {
			st.stages[k] += float64(ns) / 1e6
		}
		for k, ns := range sv.Attrs {
			st.attrs[k] += float64(ns) / 1e6
		}
		for k, n := range sv.Counts {
			st.counts[k] += float64(n)
		}
	}
	if n := float64(len(st.spans)); n > 0 {
		for _, m := range []map[string]float64{st.stages, st.attrs, st.counts} {
			for k := range m {
				m[k] /= n
			}
		}
	}
	return st
}

// gitState returns the checkout's HEAD and whether its tracked files
// differ from it; "unknown" outside a git work tree.
func gitState() (string, bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", false
	}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(sha)), err == nil && len(st) > 0
}

// writeResult stores r as <dir>/<workload>[.traced].json.
func writeResult(dir string, r *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := r.Meta.Workload
	if r.Meta.Traced {
		name += ".traced"
	}
	path := filepath.Join(dir, name+".json")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResult loads a result file.
func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
