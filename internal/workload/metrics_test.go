package workload

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/obs"
)

// TestMetricsEndToEndScrape drives a real workload through a full remote
// stack — replicated ring, async invalidation bus, live loopback cacheproto
// servers — and scrapes the /metrics endpoint a -metrics-addr flag would
// serve, asserting every subsystem's series show up with traffic in them.
func TestMetricsEndToEndScrape(t *testing.T) {
	opt := tinyOpts()
	reg := obs.NewRegistry()
	st, err := BuildStack(StackConfig{
		Mode:              ModeUpdate,
		Seed:              opt.Seed,
		RngSeed:           42,
		LatencyScale:      opt.LatencyScale,
		BufferPoolPages:   expPoolPages,
		CacheNodes:        3,
		Replicas:          2,
		Transport:         TransportRemote,
		AsyncInvalidation: true,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rep, err := Run(st, RunConfig{Clients: 3, Sessions: 2, PagesPerSession: 5,
		WritePct: 20, ZipfA: 2.0, WarmupSessions: 3, RngSeed: 9})
	if err != nil || rep.Errors > 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}

	ms, err := obs.Serve("127.0.0.1:0", reg,
		obs.BreakerHealth(reg, cacheproto.PoolBreakerGaugeName))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	resp, err := http.Get("http://" + ms.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every tier of the stack registered and saw traffic.
	for _, family := range []string{
		"cachegenie_store_hits_total",             // kvcache
		"cachegenie_store_sets_total",             // kvcache
		"cachegenie_server_op_latency_seconds",    // cacheproto server
		"cachegenie_server_conns_opened_total",    // cacheproto server
		"cachegenie_pool_op_latency_seconds",      // cacheproto pool
		"cachegenie_pool_dials_total",             // cacheproto pool
		"cachegenie_pool_breaker_state",           // cacheproto breaker
		"cachegenie_invbus_enqueued_total",        // invalidation bus
		"cachegenie_invbus_queue_depth",           // invalidation bus
		"cachegenie_cluster_failover_reads_total", // cluster ring
		"cachegenie_genie_hits_total",             // core Genie
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing family %q", family)
		}
	}

	// The per-op latency summaries carry real traffic: at least one pool
	// get series with a nonzero count.
	if !strings.Contains(body, `op="get"`) {
		t.Error("/metrics has no per-op get series")
	}
	counted := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "cachegenie_pool_op_latency_seconds_count") &&
			!strings.HasSuffix(line, " 0") {
			counted = true
			break
		}
	}
	if !counted {
		t.Error("every pool op latency count is zero — instrumentation not on the op path")
	}

	// Healthy tier: every breaker closed, so /healthz is 200.
	hresp, err := http.Get("http://" + ms.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d (%s), want 200", hresp.StatusCode, hbody)
	}

	// The extended wire stats ride the same instrumentation: every reachable
	// node answers the 3-field STAT lines, including the new per-op ones.
	cts := st.CacheTierStats()
	if cts.UnreachableNodes != 0 {
		t.Fatalf("unreachable nodes: %d", cts.UnreachableNodes)
	}
	if len(cts.NodeWireStats) != 3 {
		t.Fatalf("NodeWireStats len = %d, want 3", len(cts.NodeWireStats))
	}
	sawOpCount := false
	for _, node := range cts.NodeWireStats {
		if node == nil {
			t.Fatal("nil per-node wire stats for a reachable node")
		}
		// The stack's clients reach the wire through mop alone: a per-op
		// call travels as a one-op batch, so no bare get arrives.
		if _, ok := node["op_mop_count"]; ok {
			sawOpCount = true
		}
	}
	if !sawOpCount {
		t.Error("no node reported op_mop_count via the wire stats command")
	}
}
