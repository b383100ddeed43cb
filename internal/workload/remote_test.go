package workload

import (
	"strings"
	"testing"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/social"
)

func TestBuildStackRemoteTransport(t *testing.T) {
	opt := tinyOpts()
	st, err := BuildStack(StackConfig{
		Mode:            ModeUpdate,
		Seed:            opt.Seed,
		RngSeed:         42,
		LatencyScale:    opt.LatencyScale,
		BufferPoolPages: expPoolPages,
		CacheNodes:      3,
		Transport:       TransportRemote,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Servers) != 3 || len(st.Pools) != 3 || len(st.Stores) != 3 {
		t.Fatalf("remote stack shape: %d servers, %d pools, %d stores",
			len(st.Servers), len(st.Pools), len(st.Stores))
	}
	addrs := st.NodeAddrs()
	if len(addrs) != 3 {
		t.Fatalf("addrs = %v", addrs)
	}
	for _, a := range addrs {
		if !strings.HasPrefix(a, "127.0.0.1:") {
			t.Fatalf("node not on loopback: %q", a)
		}
	}
	rep, err := Run(st, RunConfig{Clients: 3, Sessions: 2, PagesPerSession: 5, WritePct: 20, ZipfA: 2.0, WarmupSessions: 3, RngSeed: 9})
	if err != nil || rep.Errors > 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	// The cache traffic really crossed TCP: the server-side stores saw sets,
	// and the pools dialed at least one connection each... or served no keys
	// (ring imbalance at tiny scale), so assert on the aggregate.
	cs := st.CacheStats()
	if cs.Sets == 0 {
		t.Fatal("no cache traffic reached the remote nodes")
	}
	dials := int64(0)
	for _, p := range st.Pools {
		dials += p.Stats().Dials
	}
	if dials == 0 {
		t.Fatal("pools never dialed")
	}
}

func TestRemoteStackAsyncBusDrains(t *testing.T) {
	opt := tinyOpts()
	st, err := BuildStack(StackConfig{
		Mode: ModeUpdate, Seed: opt.Seed, RngSeed: 42, LatencyScale: opt.LatencyScale,
		BufferPoolPages: expPoolPages, CacheNodes: 4, Transport: TransportRemote,
		AsyncInvalidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := Run(st, RunConfig{Clients: 3, Sessions: 2, PagesPerSession: 6, WritePct: 40, ZipfA: 2.0, WarmupSessions: 3, RngSeed: 11})
	if err != nil || rep.Errors > 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	bs := st.Genie.InvStats()
	if bs.Enqueued == 0 || bs.Applied+bs.Coalesced != bs.Enqueued {
		t.Fatalf("bus did not drain over TCP: %+v", bs)
	}
	if rep.ByPage[social.PageCreateBM].P99 < rep.ByPage[social.PageCreateBM].P50 {
		t.Fatalf("percentiles inverted: %+v", rep.ByPage[social.PageCreateBM])
	}
}

func TestParseTransport(t *testing.T) {
	for s, want := range map[string]CacheTransport{
		"": TransportInProcess, "inprocess": TransportInProcess, "local": TransportInProcess,
		"remote": TransportRemote, "tcp": TransportRemote,
	} {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Fatalf("ParseTransport(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("bad transport accepted")
	}
}

func TestRemoteStackAgainstExternalAddrs(t *testing.T) {
	// Launch a "foreign" cache tier the way cmd/geniecache -nodes does,
	// then point a stack at it via CacheAddrs: the stack must use it (and
	// flush it first) rather than launching its own servers.
	opt := tinyOpts()
	var addrs []string
	var extStores []*kvcache.Store
	for i := 0; i < 2; i++ {
		store := kvcache.New(0)
		srv := cacheproto.NewServer(store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		extStores = append(extStores, store)
		addrs = append(addrs, addr)
	}
	// Pollute the external nodes to prove the new stack flushes them.
	extStores[0].Set("stale", []byte("junk"), 0)

	st, err := BuildStack(StackConfig{
		Mode: ModeUpdate, Seed: opt.Seed, RngSeed: 42, LatencyScale: opt.LatencyScale,
		BufferPoolPages: expPoolPages, Transport: TransportRemote, CacheAddrs: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Servers) != 0 || len(st.Stores) != 0 {
		t.Fatalf("external stack launched its own nodes: %d servers, %d stores", len(st.Servers), len(st.Stores))
	}
	if _, ok := extStores[0].Get("stale"); ok {
		t.Fatal("external nodes not flushed at assembly")
	}
	rep, err := Run(st, RunConfig{Clients: 2, Sessions: 2, PagesPerSession: 4, WritePct: 20, ZipfA: 2.0, RngSeed: 5})
	if err != nil || rep.Errors > 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	// CacheStats falls back to the wire-level stats command.
	if cs := st.CacheStats(); cs.Sets == 0 {
		t.Fatalf("wire-level stats empty: %+v", cs)
	}
}
