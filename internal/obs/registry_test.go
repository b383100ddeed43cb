package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRegistryPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter
	a.Add(7)
	b.Add(3)
	reg.CounterFunc("test_ops_total", `node="a"`, "ops processed", a.Load)
	reg.CounterFunc("test_ops_total", `node="b"`, "ops processed", b.Load)
	var g Gauge
	g.Set(42)
	reg.GaugeFunc("test_depth", "", "queue depth", g.Load)
	reg.CounterFunc("test_fn_total", "", "from a func", func() int64 { return 11 })
	h := NewHistogram()
	reg.RegisterHistogram("test_latency_seconds", "", "latency", h)
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000) // 1ms
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_ops_total ops processed",
		"# TYPE test_ops_total counter",
		`test_ops_total{node="a"} 7`,
		`test_ops_total{node="b"} 3`,
		"# TYPE test_depth gauge",
		"test_depth 42",
		"test_fn_total 11",
		"# TYPE test_latency_seconds summary",
		"test_latency_seconds_count 1000",
		// Nanosecond histograms render as seconds: the sum of 1000 x 1ms is
		// exactly 1s, and the quantile is the ~1ms bucket midpoint.
		"test_latency_seconds_sum 1",
		`test_latency_seconds{quantile="0.99"} 0.000999`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE emit once per family even with several series.
	if n := strings.Count(out, "# TYPE test_ops_total counter"); n != 1 {
		t.Errorf("TYPE line for test_ops_total appears %d times, want 1", n)
	}
}

// TestUnitsFromNames pins the naming contract: a series named _seconds or
// _seconds_total holds nanoseconds and renders as float seconds, every other
// series renders as an integer, and Snapshot keeps every value raw.
func TestUnitsFromNames(t *testing.T) {
	reg := NewRegistry()
	wait := NewHistogram()
	wait.Observe(1_500_000)
	reg.RegisterHistogram("test_wait_seconds", "", "", wait)
	reg.CounterFunc("test_busy_seconds_total", "", "", func() int64 { return 2_500_000_000 })
	reg.GaugeFunc("test_lag_seconds", "", "", func() int64 { return 250_000_000 })
	reg.CounterFunc("test_ops_total", "", "", func() int64 { return 1_500_000 })
	reg.GaugeFunc("test_used_bytes", "", "", func() int64 { return 4096 })
	reg.GaugeFunc("test_seconds_budget", "", "", func() int64 { return 3_000_000_000 })
	sizes := NewHistogram()
	sizes.Observe(7)
	reg.RegisterHistogram("test_batch_size", "", "", sizes)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"test_wait_seconds_sum 0.0015\n",
		"test_wait_seconds_count 1\n",
		"test_busy_seconds_total 2.5\n",
		"test_lag_seconds 0.25\n",
		"test_ops_total 1500000\n",
		"test_used_bytes 4096\n",
		// _seconds mid-name is not a unit suffix.
		"test_seconds_budget 3000000000\n",
		`test_batch_size{quantile="0.5"} 7` + "\n",
		"test_batch_size_sum 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Histograms["test_wait_seconds"].Sum; got != 1_500_000 {
		t.Errorf("snapshot histogram sum = %d, want raw 1500000", got)
	}
	if got := snap.Counters["test_busy_seconds_total"]; got != 2_500_000_000 {
		t.Errorf("snapshot counter = %d, want raw 2500000000", got)
	}
	if got := snap.Gauges["test_lag_seconds"]; got != 250_000_000 {
		t.Errorf("snapshot gauge = %d, want raw 250000000", got)
	}
}

func TestRegistryUpsertRebinds(t *testing.T) {
	reg := NewRegistry()
	var old, fresh Counter
	old.Add(5)
	reg.CounterFunc("test_rebind_total", `node="x"`, "h", old.Load)
	fresh.Add(9)
	// A revived node re-registers under the same (name, labels): the series
	// must rebind to the new instance, not duplicate.
	reg.CounterFunc("test_rebind_total", `node="x"`, "h", fresh.Load)

	snap := reg.Snapshot()
	if got := snap.SumCounters("test_rebind_total"); got != 9 {
		t.Fatalf("after rebind SumCounters = %d, want 9 (fresh instance)", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `test_rebind_total{node="x"}`); n != 1 {
		t.Fatalf("rebound series appears %d times, want 1\n%s", n, buf.String())
	}
}

func TestSnapshotHelpers(t *testing.T) {
	reg := NewRegistry()
	val := func(v int64) func() int64 { return func() int64 { return v } }
	reg.CounterFunc("test_hits_total", `node="a"`, "", val(10))
	reg.CounterFunc("test_hits_total", `node="b"`, "", val(20))
	reg.GaugeFunc("test_breaker", `node="a"`, "", val(0))
	reg.GaugeFunc("test_breaker", `node="b"`, "", val(1))

	snap := reg.Snapshot()
	if got := snap.SumCounters("test_hits_total"); got != 30 {
		t.Errorf("SumCounters = %d, want 30", got)
	}
	states := snap.GaugeValues("test_breaker")
	if len(states) != 2 || states[0] != 0 || states[1] != 1 {
		t.Errorf("GaugeValues = %v, want [0 1]", states)
	}
	// Prefix matching must not cross metric-name boundaries.
	reg.CounterFunc("test_hits_total_other", "", "", val(99))
	if got := reg.Snapshot().SumCounters("test_hits_total"); got != 30 {
		t.Errorf("SumCounters matched a longer name: %d, want 30", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	reg.CounterFunc("x", "", "", func() int64 { return 1 })
	reg.GaugeFunc("y", "", "", func() int64 { return 1 })
	reg.RegisterHistogram("z", "", "", NewHistogram())
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if s := reg.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_served_total", "", "served", func() int64 { return 1 })
	var breaker Gauge
	reg.GaugeFunc("test_breaker_state", `node="a"`, "", breaker.Load)
	ms, err := Serve("127.0.0.1:0", reg, BreakerHealth(reg, "test_breaker_state"))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "test_served_total 1") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body := get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: code %d", code)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if doc.Counters["test_served_total"] != 1 {
		t.Errorf("/metrics.json counters = %v", doc.Counters)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz healthy: code %d body %q", code, body)
	}
	// Trip the breaker gauge: health flips to 503.
	breaker.Set(1)
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "degraded") {
		t.Errorf("/healthz degraded: code %d body %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
}
