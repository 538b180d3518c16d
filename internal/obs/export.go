package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), names sorted, label values sorted
// within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := r.names()
	entries := make([]metricEntry, len(names))
	for i, name := range names {
		entries[i] = r.metrics[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, name := range names {
		e := entries[i]
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(e.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, e.m.metricKind())
		switch m := e.m.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s %d\n", name, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(m.Value()))
		case *gaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(m.Value()))
		case *Histogram:
			bounds, cum, count, sum := m.snapshot()
			for j, ub := range bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum[j])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
			fmt.Fprintf(&b, "%s_sum %s\n", name, formatFloat(sum))
			fmt.Fprintf(&b, "%s_count %d\n", name, count)
		case *CounterVec:
			vals, kids := m.children()
			for _, v := range vals {
				fmt.Fprintf(&b, "%s{%s=%s} %d\n", name, m.label, quoteLabel(v), kids[v].Value())
			}
		case *GaugeVec:
			vals, kids := m.children()
			for _, v := range vals {
				fmt.Fprintf(&b, "%s{%s=%s} %s\n", name, m.label, quoteLabel(v), formatFloat(kids[v].Value()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quoteLabel escapes a label value per the exposition format.
func quoteLabel(v string) string {
	return strconv.Quote(v)
}

// MetricSnapshot is one exported series in machine-readable form, used by
// /debug/vars and `acornctl obs`.
type MetricSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Help string `json:"help,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Count, Sum and Buckets are set for histograms; Buckets maps the
	// stringified upper bound to the cumulative count.
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
	// Series is set for labelled families: label value → child value.
	Label  string             `json:"label,omitempty"`
	Series map[string]float64 `json:"series,omitempty"`
}

// Snapshot returns every registered metric's current state, sorted by name.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	names := r.names()
	entries := make([]metricEntry, len(names))
	for i, name := range names {
		entries[i] = r.metrics[name]
	}
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(names))
	for i, name := range names {
		e := entries[i]
		snap := MetricSnapshot{Name: name, Kind: e.m.metricKind(), Help: e.help}
		switch m := e.m.(type) {
		case *Counter:
			v := float64(m.Value())
			snap.Value = &v
		case *Gauge:
			v := m.Value()
			snap.Value = &v
		case *gaugeFunc:
			v := m.Value()
			snap.Value = &v
		case *Histogram:
			bounds, cum, count, sum := m.snapshot()
			snap.Count, snap.Sum = &count, &sum
			snap.Buckets = make(map[string]uint64, len(bounds)+1)
			for j, ub := range bounds {
				snap.Buckets[formatFloat(ub)] = cum[j]
			}
			snap.Buckets["+Inf"] = count
		case *CounterVec:
			vals, kids := m.children()
			snap.Label = m.label
			snap.Series = make(map[string]float64, len(vals))
			for _, v := range vals {
				snap.Series[v] = float64(kids[v].Value())
			}
		case *GaugeVec:
			vals, kids := m.children()
			snap.Label = m.label
			snap.Series = make(map[string]float64, len(vals))
			for _, v := range vals {
				snap.Series[v] = kids[v].Value()
			}
		}
		out = append(out, snap)
	}
	return out
}
