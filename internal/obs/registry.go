package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready; methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n should be non-negative; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; methods
// are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MetricKind discriminates registry entries.
type MetricKind int

// Kinds, mapped to Prometheus TYPE names (histograms render as summaries:
// precomputed quantiles, _sum, _count).
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

type metric struct {
	name   string // Prometheus metric name, no labels
	labels string // rendered label body, e.g. `node="0",op="get"` (may be "")
	help   string
	kind   MetricKind

	fn   func() int64 // counter/gauge value, read at render time
	hist *Histogram
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use. Registration is upsert by (name, labels): registering an
// existing key rebinds the entry to the new backing and keeps one line per
// series in the output — a rebuilt component (a revived node, the next
// experiment's stack) takes over its names instead of duplicating them.
//
// Every value is held as a raw int64, and the name says how it renders: a
// series named _seconds or _seconds_total holds nanoseconds and renders as
// float seconds; any other series renders as an integer. Snapshot keeps
// every value raw.
type Registry struct {
	// mu guards the entry list; metric fn callbacks run after snapshotting,
	// never under it.
	//
	//genie:nonblocking
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

func metricKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// upsert installs m under its key, replacing any previous entry's backing
// in place so render order is stable across re-registration.
func (r *Registry) upsert(m *metric) {
	if r == nil {
		return
	}
	key := metricKey(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		*old = *m
		return
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
}

// CounterFunc registers a counter whose value is read from fn at render
// time — a view over counters that already live elsewhere (store stats,
// pool atomics, an obs.Counter's Load) with no double accounting.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindCounter, fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at render time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() int64) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindGauge, fn: fn})
}

// RegisterHistogram registers an externally owned histogram (one embedded
// in a component's always-on instrumentation block).
func (r *Registry) RegisterHistogram(name, labels, help string, h *Histogram) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindHistogram, hist: h})
}

// snapshotMetrics copies the entry list under the lock; values are read
// after, so a slow fn never holds the registry.
func (r *Registry) snapshotMetrics() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.metrics...)
}

// VisitHistograms calls fn for every registered histogram (name, label
// body, histogram). The live ticker uses it to merge per-node op
// histograms into interval aggregates.
func (r *Registry) VisitHistograms(fn func(name, labels string, h *Histogram)) {
	for _, m := range r.snapshotMetrics() {
		if m.kind == KindHistogram && m.hist != nil {
			fn(m.name, m.labels, m.hist)
		}
	}
}

// quantiles rendered into Prometheus summaries and JSON snapshots.
var summaryQuantiles = []struct {
	q     float64
	label string
}{
	{0.5, "0.5"},
	{0.99, "0.99"},
	{0.999, "0.999"},
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Series sharing a metric name are grouped under one HELP/TYPE
// pair; histograms render as summaries (precomputed quantiles plus _sum and
// _count), and _seconds series render their nanoseconds as seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	metrics := r.snapshotMetrics()
	// Group by name, preserving first-seen order, so HELP/TYPE emit once
	// per name no matter the registration interleaving.
	order := make([]string, 0, len(metrics))
	groups := make(map[string][]*metric, len(metrics))
	for _, m := range metrics {
		if _, ok := groups[m.name]; !ok {
			order = append(order, m.name)
		}
		groups[m.name] = append(groups[m.name], m)
	}
	var b strings.Builder
	for _, name := range order {
		ms := groups[name]
		if h := ms[0].help; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, h)
		}
		typ := "counter"
		switch ms[0].kind {
		case KindGauge:
			typ = "gauge"
		case KindHistogram:
			typ = "summary"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		seconds := strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_seconds_total")
		for _, m := range ms {
			if m.kind != KindHistogram {
				b.WriteString(name)
				writeLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatValue(m.fn(), seconds))
				b.WriteByte('\n')
				continue
			}
			s := m.hist.Snapshot()
			for _, sq := range summaryQuantiles {
				b.WriteString(name)
				writeLabels(&b, m.labels, "quantile", sq.label)
				b.WriteByte(' ')
				b.WriteString(formatValue(s.Quantile(sq.q), seconds))
				b.WriteByte('\n')
			}
			b.WriteString(name)
			b.WriteString("_sum")
			writeLabels(&b, m.labels, "", "")
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Sum, seconds))
			b.WriteByte('\n')
			b.WriteString(name)
			b.WriteString("_count")
			writeLabels(&b, m.labels, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(s.Count, 10))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders `{labels,extraKey="extraVal"}` (or nothing when both
// parts are empty).
func writeLabels(b *strings.Builder, labels, extraKey, extraVal string) {
	if labels == "" && extraKey == "" {
		return
	}
	b.WriteByte('{')
	b.WriteString(labels)
	if extraKey != "" {
		if labels != "" {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
}

// formatValue renders v as an integer, or nanoseconds v as float seconds.
func formatValue(v int64, seconds bool) string {
	if seconds {
		return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
	}
	return strconv.FormatInt(v, 10)
}

// HistStats is a histogram's summary in a JSON snapshot. Values are raw
// (nanoseconds for latency histograms), unscaled.
type HistStats struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// Snapshot is the registry's JSON form, keyed by `name` or `name{labels}`.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]int64     `json:"gauges"`
	Histograms map[string]HistStats `json:"histograms"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistStats{},
	}
	for _, m := range r.snapshotMetrics() {
		key := metricKey(m.name, m.labels)
		switch m.kind {
		case KindCounter:
			out.Counters[key] = m.fn()
		case KindGauge:
			out.Gauges[key] = m.fn()
		case KindHistogram:
			s := m.hist.Snapshot()
			out.Histograms[key] = HistStats{
				Count: s.Count,
				Sum:   s.Sum,
				Mean:  s.Mean(),
				P50:   s.Quantile(0.5),
				P99:   s.Quantile(0.99),
				P999:  s.Quantile(0.999),
				Max:   s.Max,
			}
		}
	}
	return out
}

// SumCounters sums every counter whose metric name equals name (across all
// label sets).
func (s Snapshot) SumCounters(name string) int64 {
	var total int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// GaugeValues returns every gauge series under name, sorted by key — the
// ticker's view of per-node breaker states.
func (s Snapshot) GaugeValues(name string) []int64 {
	keys := make([]string, 0, 4)
	for k := range s.Gauges {
		if k == name || strings.HasPrefix(k, name+"{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]int64, len(keys))
	for i, k := range keys {
		out[i] = s.Gauges[k]
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
