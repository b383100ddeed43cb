package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Env records the machine a result file was produced on.
type Env struct {
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	GitSHA      string `json:"git_sha"`
	Kernel      string `json:"kernel"`
	FsyncPolicy string `json:"fsync_policy"`
	Transport   string `json:"transport"`
}

// CurrentEnv describes this process; the caller supplies what needs a
// subprocess or a file read.
func CurrentEnv(gitSHA, kernel string) Env {
	return Env{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GitSHA: gitSHA, Kernel: kernel,
		FsyncPolicy: "write_durable: fsync on every WAL group commit (sqldb default); others memory-only",
		Transport:   "loopback TCP (127.0.0.1), cache servers in-process",
	}
}

// WorkloadRuns is every run of one workload in a suite: EndToEnd holds one
// result per repetition (seeds Seed, Seed+1, ...), PerLayer the traced pass.
type WorkloadRuns struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	EndToEnd []Result `json:"end_to_end"`
	PerLayer *Result  `json:"per_layer,omitempty"`
}

// File is the one result schema: geniebench -out writes it, -compare reads
// two of them.
type File struct {
	Env       Env            `json:"env"`
	Workloads []WorkloadRuns `json:"workloads"`
}

// ReadFile loads a result file.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Values collects one end-to-end metric across a workload's repetitions.
func (w WorkloadRuns) Values(name string) []float64 {
	var out []float64
	for _, r := range w.EndToEnd {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
