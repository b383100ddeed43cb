// Package labelcard exercises obsnaming's label-value rule: label VALUES
// interpolated into a registration's labels argument must trace to bounded
// sources — request-sized data (wire keys, payload bytes) must never become
// a label value.
package labelcard

import (
	"fmt"
	"strconv"
	"strings"

	"fixtures/obs"
)

var opNames = [...]string{`op="get"`, `op="set"`, `op="delete"`}

// Bounded sources: constants, constant-array indexing, integers however
// they are formatted.
func registerBounded(reg *obs.Registry, i, k int) {
	reg.CounterFunc("cachegenie_const_total", `node="a"`, "constant", nil)
	reg.CounterFunc("cachegenie_idx_total", opNames[k], "index into constant array", nil)
	reg.CounterFunc("cachegenie_int_total", fmt.Sprintf(`node="%d"`, i), "formatted integer", nil)
	reg.CounterFunc("cachegenie_itoa_total", `node="`+strconv.Itoa(i)+`"`, "itoa integer", nil)
}

// The flagship leak: a wire key interpolated straight into the value.
func registerKeyBytes(reg *obs.Registry, key []byte) {
	reg.CounterFunc("cachegenie_key_total", `op="`+string(key)+`"`, "per-key", nil) // want `unbounded label value`
}

// The hole hides behind an in-package helper; flagged at the registration.
func keyLabels(k string) string { return `op="` + k + `"` }

func registerViaHelper(reg *obs.Registry, raw []byte) {
	reg.CounterFunc("cachegenie_helper_total", keyLabels(string(raw)), "helper", nil) // want `unbounded label value`
}

// A parameter is as bounded as its call sites: this one is reachable with
// request bytes, so the registration is flagged.
func registerNode(reg *obs.Registry, node string) {
	reg.CounterFunc("cachegenie_node_total", `node="`+node+`"`, "param", nil) // want `unbounded label value`
}

func stampKey(reg *obs.Registry, wire []byte) {
	registerNode(reg, string(wire))
}

// Same shape, but every caller passes a bounded value: clean.
func registerShard(reg *obs.Registry, shard string) {
	reg.GaugeFunc("cachegenie_shard_depth", `op="`+shard+`"`, "bounded callers", nil)
}

func wireShards(reg *obs.Registry) {
	for i := 0; i < 4; i++ {
		registerShard(reg, strconv.Itoa(i))
	}
}

// A local variable carries the taint too.
func registerLocal(reg *obs.Registry, payload []byte) {
	labels := `op="` + string(payload) + `"`
	reg.CounterFunc("cachegenie_local_total", labels, "local", nil) // want `unbounded label value`
}

// A labels parameter with no in-package callers is the caller's contract —
// deferred, not flagged (the analyzer's best-effort stance).
func RegisterMerged(reg *obs.Registry, labels string) {
	reg.CounterFunc("cachegenie_merged_total", labels, "deferred to callers", nil)
}

// An in-package method body is traced like a helper function.
type shardSet struct{}

func (shardSet) name() string { return "s0" }

func registerMethodHelper(reg *obs.Registry, s shardSet) {
	reg.CounterFunc("cachegenie_method_total", `node="`+s.name()+`"`, "constant method", nil)
}

// A foreign method's result is untraceable: left alone.
func registerOpaque(reg *obs.Registry, b *strings.Builder) {
	reg.CounterFunc("cachegenie_opaque_total", `node="`+b.String()+`"`, "untraceable", nil)
}
