// Package obsfix exercises the obsnaming analyzer.
package obsfix

import (
	"fmt"

	"fixtures/obs"
)

func register(reg *obs.Registry, node string, id int) {
	reg.CounterFunc("cachegenie_good_ops_total", `node="a"`, "ok", nil)
	reg.CounterFunc("genieload_ops_total", "", "bad prefix", nil)                      // want `must match cachegenie_`
	reg.CounterFunc("cachegenie_good_ops", "", "no suffix", nil)                       // want `must end in _total`
	reg.GaugeFunc("cachegenie_stalls_total", "", "gauge as counter", nil)              // want `must not end in _total`
	reg.GaugeFunc("cachegenie_lag_nanos", "", "raw nanos", nil)                        // want `non-base unit "nanos"`
	reg.GaugeFunc("cachegenie_bytes_used", "", "unit mid-name", nil)                   // want `must be the final suffix`
	reg.CounterFunc("cachegenie_"+node+"_total", "", "dynamic", nil)                   // want `compile-time string constant`
	reg.CounterFunc("cachegenie_keyed_total", `key="abc"`, "per-key", nil)             // want `label key "key"`
	reg.CounterFunc("cachegenie_fmt_total", fmt.Sprintf(`shard="%d"`, id), "fmt", nil) // want `label key "shard"`
	reg.RegisterHistogram("cachegenie_wait_seconds", "", "ok", nil)
	reg.RegisterHistogram("cachegenie_wait", "", "unit-less histogram", nil)
	reg.RegisterHistogram("cachegenie_sizes_seconds", "", "none", nil)
	reg.GaugeFunc("cachegenie_lag_seconds", "", "scaled", nil)
}

func shardLabels(s string) string {
	return `shard="` + s + `"`
}

func registerHelper(reg *obs.Registry) {
	reg.CounterFunc("cachegenie_helper_total", shardLabels("x"), "helper", nil) // want `label key "shard"`
}

func registerLocal(reg *obs.Registry, node string) {
	labels := ""
	if node != "" {
		labels = `host="` + node + `"`
	}
	reg.CounterFunc("cachegenie_local_total", labels, "local", nil) // want `label key "host"`
}

func registerNodeLocal(reg *obs.Registry, node string) {
	labels := ""
	if node != "" {
		labels = `node="` + node + `"`
	}
	reg.CounterFunc("cachegenie_node_total", labels, "bounded key: fine", nil)
}
