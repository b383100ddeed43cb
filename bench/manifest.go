package bench

// Manifest is BENCHMARK.json, generated from the tables in this package.
type Manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []ManifestWL     `json:"workloads"`
	EndToEnd   []MetricDef      `json:"end_to_end"`
	PerLayer   []ManifestMetric `json:"per_layer"`
}

// ManifestWL is a workload's manifest entry.
type ManifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// ManifestMetric is a per-layer metric's manifest entry (no bound).
type ManifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// RunSeconds is how long one driver run measures.
const RunSeconds = 10

// CurrentManifest builds BENCHMARK.json's content.
func CurrentManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		EndToEnd:   EndToEnd,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, ManifestWL{w.Name, w.Why})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, ManifestMetric{d.Name, d.Unit, d.Better})
	}
	return m
}
