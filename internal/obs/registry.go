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

// Unit scales histogram values for Prometheus rendering. Internally every
// histogram holds raw int64s; the JSON snapshot keeps them raw.
type Unit int

// Units.
const (
	// UnitNone renders values as-is (sizes, depths, counts).
	UnitNone Unit = iota
	// UnitNanoseconds renders values divided by 1e9: Prometheus convention
	// is base seconds, so a *_seconds histogram observed in nanoseconds
	// scrapes correctly.
	UnitNanoseconds
)

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
	unit   Unit

	counter *Counter
	gauge   *Gauge
	fn      func() int64 // counter/gauge view over external state
	hist    *Histogram
}

func (m *metric) value() int64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.counter != nil:
		return m.counter.Load()
	case m.gauge != nil:
		return m.gauge.Load()
	}
	return 0
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use. Registration is upsert by (name, labels): registering an
// existing key rebinds the entry to the new backing and keeps one line per
// series in the output — a rebuilt component (a revived node, the next
// experiment's stack) takes over its names instead of duplicating them.
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

// Counter registers (or rebinds) a counter and returns it. Safe on a nil
// registry: returns a detached counter.
func (r *Registry) Counter(name, labels, help string) *Counter {
	c := &Counter{}
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers (or rebinds) a gauge and returns it.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	g := &Gauge{}
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindGauge, gauge: g})
	return g
}

// CounterFunc registers a counter whose value is read from fn at render
// time — a view over counters that already live elsewhere (store stats,
// pool atomics) with no double accounting.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindCounter, fn: fn})
}

// CounterFuncUnit is CounterFunc for values held in a non-base unit, scaled
// at render time as GaugeFuncUnit's are.
func (r *Registry) CounterFuncUnit(name, labels, help string, unit Unit, fn func() int64) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindCounter, unit: unit, fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at render time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() int64) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindGauge, fn: fn})
}

// GaugeFuncUnit is GaugeFunc for values held in a non-base unit: the gauge
// renders scaled per unit (UnitNanoseconds → float seconds), so a
// nanosecond-held lag can live behind a _seconds series name.
func (r *Registry) GaugeFuncUnit(name, labels, help string, unit Unit, fn func() int64) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindGauge, unit: unit, fn: fn})
}

// Histogram registers (or rebinds) a histogram and returns it.
func (r *Registry) Histogram(name, labels, help string, unit Unit) *Histogram {
	h := &Histogram{}
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindHistogram, unit: unit, hist: h})
	return h
}

// RegisterHistogram registers an externally owned histogram (one embedded
// in a component's always-on instrumentation block).
func (r *Registry) RegisterHistogram(name, labels, help string, unit Unit, h *Histogram) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindHistogram, unit: unit, hist: h})
}

// RegisterCounter registers an externally owned counter.
func (r *Registry) RegisterCounter(name, labels, help string, c *Counter) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindCounter, counter: c})
}

// RegisterGauge registers an externally owned gauge.
func (r *Registry) RegisterGauge(name, labels, help string, g *Gauge) {
	r.upsert(&metric{name: name, labels: labels, help: help, kind: KindGauge, gauge: g})
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
// _count), scaled per their Unit.
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
		for _, m := range ms {
			if m.kind != KindHistogram {
				b.WriteString(name)
				writeLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatUnit(m.value(), m.unit))
				b.WriteByte('\n')
				continue
			}
			s := m.hist.Snapshot()
			for _, sq := range summaryQuantiles {
				b.WriteString(name)
				writeLabels(&b, m.labels, "quantile", sq.label)
				b.WriteByte(' ')
				b.WriteString(formatUnit(s.Quantile(sq.q), m.unit))
				b.WriteByte('\n')
			}
			b.WriteString(name)
			b.WriteString("_sum")
			writeLabels(&b, m.labels, "", "")
			b.WriteByte(' ')
			b.WriteString(formatUnit(s.Sum, m.unit))
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

func formatUnit(v int64, unit Unit) string {
	if unit == UnitNanoseconds {
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
			out.Counters[key] = m.value()
		case KindGauge:
			out.Gauges[key] = m.value()
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
