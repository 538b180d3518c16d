package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is where the manifest sits, relative to the repository
// root the benchmark runs from.
const manifestPath = "BENCHMARK.json"

// manifest is the part of the repository's BENCHMARK.json the benchmark
// reads: the end-to-end metrics with their regression bounds, and the
// per-layer metrics a traced run reports.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// metrics returns the metrics a run in the given mode reports: the
// end-to-end set untraced, the per-layer set traced.
func (m *manifest) metrics(traced bool) []manifestMetric {
	if traced {
		return m.PerLayer
	}
	return m.EndToEnd
}
