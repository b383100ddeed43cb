// Command geniecache runs the cache tier: in-memory LRU key-value stores
// speaking a memcached-style text protocol (plus the pipelined mop batch
// extension) over TCP. It plays the role of the paper's memcached 1.4.5
// machine; with -nodes N it launches a whole consistent-hash-ready tier in
// one process, one server per node.
//
// Usage:
//
//	geniecache -addr :11311 -capacity 536870912
//	geniecache -addr 127.0.0.1:11311 -nodes 4   # ports 11311..11314
//
// With -nodes > 1 the configured capacity is split evenly across nodes and
// consecutive ports are claimed starting at the configured one (port 0
// lets the kernel pick every port). The launched addresses print one per
// line, followed by a comma-joined list ready for
// `genieload -transport remote -cache-addrs ...`.
//
// Observability: -metrics-addr serves Prometheus /metrics (per-node op
// latency histograms, store counters, connection gauges under node="addr"
// labels), a /metrics.json snapshot, /healthz, and /debug/pprof for the
// whole tier.
//
// On SIGINT/SIGTERM the servers shut down gracefully: listeners close, open
// connections are torn down, handler goroutines are joined, and per-node
// stats print before exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11311", "listen address of the first node")
	capacity := flag.Int64("capacity", 512<<20, "total cache capacity in bytes, split across nodes (0 = unbounded)")
	nodes := flag.Int("nodes", 1, "number of cache nodes to launch on consecutive ports")
	shards := flag.Int("shards", 0, "lock-stripe count per node (0 = auto: next pow2 >= 4x GOMAXPROCS; 1 = single-mutex baseline)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json, /healthz and /debug/pprof on this address (empty = disabled)")
	flag.Parse()

	if *nodes < 1 {
		log.Fatalf("geniecache: -nodes must be >= 1, got %d", *nodes)
	}
	host, portStr, err := net.SplitHostPort(*addr)
	if err != nil {
		log.Fatalf("geniecache: bad -addr %q: %v", *addr, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("geniecache: bad port in -addr %q: %v", *addr, err)
	}
	perNode := *capacity
	if *nodes > 1 && perNode > 0 {
		perNode = *capacity / int64(*nodes)
	}

	// Catch shutdown signals before any node reports ready, so a signal
	// sent as soon as the tier is up still takes the graceful path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	stores := make([]*kvcache.Store, *nodes)
	servers := make([]*cacheproto.Server, *nodes)
	bounds := make([]string, *nodes)
	for i := range servers {
		port := basePort
		if basePort != 0 {
			port = basePort + i
		}
		stores[i] = kvcache.New(perNode, kvcache.WithShards(*shards))
		servers[i] = cacheproto.NewServer(stores[i])
		bound, err := servers[i].Listen(net.JoinHostPort(host, strconv.Itoa(port)))
		if err != nil {
			// Roll back the nodes already listening before bailing.
			for j := 0; j < i; j++ {
				_ = servers[j].Close()
			}
			log.Fatalf("geniecache: node %d: %v", i, err)
		}
		bounds[i] = bound
		fmt.Printf("geniecache node %d listening on %s (capacity %d bytes)\n", i, bound, perNode)
	}
	fmt.Printf("cache tier ready: -cache-addrs %s\n", strings.Join(bounds, ","))

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		for i := range servers {
			stores[i].RegisterMetrics(reg, bounds[i])
			servers[i].Metrics().Register(reg, bounds[i])
		}
		ms, err := obs.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatalf("geniecache: %v", err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ms.Addr)
	}

	<-sig
	fmt.Println("shutting down...")
	failed := false
	for i, srv := range servers {
		if err := srv.Close(); err != nil {
			log.Printf("geniecache: node %d close: %v", i, err)
			failed = true
		}
		st := stores[i].Stats()
		fmt.Printf("node %d (%s): %d items, %d bytes, hit rate %.2f\n",
			i, bounds[i], st.Items, st.BytesUsed, st.HitRate())
	}
	if failed {
		os.Exit(1)
	}
}
