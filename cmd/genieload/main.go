// Command genieload regenerates the paper's evaluation (§5): every figure
// and table is one -experiment target. Results print as aligned text
// series; EXPERIMENTS.md records a reference run against the paper's
// numbers.
//
// Usage:
//
//	genieload -experiment all            # everything (minutes)
//	genieload -experiment exp1           # Fig 2a/2b client sweep
//	genieload -experiment table2         # Table 2 per-page latency
//	genieload -experiment exp2           # Fig 3a read/write mix
//	genieload -experiment exp3           # Fig 3b zipf skew
//	genieload -experiment exp4           # Fig 3c cache size
//	genieload -experiment exp4b          # colocated-cache variant
//	genieload -experiment exp5           # trigger overhead under load
//	genieload -experiment exp8           # node failure: breaker + live ring membership
//	genieload -experiment exp10          # R-way replication: failover routing + key handoff
//	genieload -experiment exp12          # crash drill: WAL recovery + epoch cache flush
//	genieload -experiment exp13          # hot keys: zipf skew + flash crowd vs spreading/L1/single-flight
//	genieload -experiment micro          # §5.3 microbenchmarks
//	genieload -experiment effort         # §5.2 programmer effort
//	genieload -experiment ablation       # template-invalidation baseline
//
// The -async flag routes trigger cache maintenance through the asynchronous
// invalidation bus (internal/invbus) in every experiment, and -batch-window
// sets its window.
//
// The -transport flag selects how every stack reaches its cache: inprocess
// (default; the injected-latency simulation) or remote (real cacheproto
// servers on loopback TCP behind pooled clients). With -transport remote,
// -cache-addrs points at externally launched geniecache nodes
// (cmd/geniecache -nodes N prints a ready-made list) instead of
// self-launched loopback ones.
//
// exp8 is the failure drill: it launches its own loopback tier, kills one
// node mid-run (matching geniecache's -kill-node/-kill-after flags for
// external tiers), measures the circuit breaker's fail-fast behaviour
// against the pre-resilience dial storm, drops the dead node from the ring,
// revives and rejoins it, and writes the timeline to BENCH_exp8.json.
//
// exp10 is the replication drill: the exp8 kill/revive timeline at R=1 vs
// R=2 — with a second replica, breaker-aware failover reads carry the dead
// node's key share and the hit rate rides through the kill — plus an
// invalidation-staleness scan proving triggers reached every replica,
// written to BENCH_exp10.json. The -replicas flag sets the ring's
// replication factor for every OTHER experiment's cache tier (0/1 =
// single-owner routing; exp10 sweeps R itself).
//
// exp13 is the hot-key drill: a zipf s=1.1 user popularity plus a flash
// crowd stampeding one page, run with each mitigation — hot-read spreading
// over the replica set, the client-side L1 near-cache, single-flight miss
// coalescing — toggled independently, written to BENCH_exp13.json. The
// -zipf-s and -flash-crowd flags apply the same skew knobs to every OTHER
// experiment's workload (0 = each experiment's own default).
//
// Observability: -metrics-addr serves Prometheus /metrics, a /metrics.json
// snapshot, a breaker-aware /healthz, and /debug/pprof while experiments
// run — every stack an experiment builds registers its stores, servers,
// pools, ring, and Genie into the one registry. -tick prints a live
// per-interval cache-tier line (ops/s, p50/p99 from differenced mergeable
// histograms, hit rate, breaker states, plus hot-key mitigation activity:
// spread reads, L1 hits, coalesced misses) without touching the
// experiment's own measurements.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/obs"
	"cachegenie/internal/workload"
)

// startTicker prints a live cache-tier line every interval from the metrics
// registry the experiments register their stacks into: per-interval pool ops/s
// and p50/p99 (histogram snapshots differenced with Sub, merged across nodes
// with Add), per-interval Genie hit rate, and one breaker-state letter per
// pool (C closed, O open, H half-open). Returns a stop func that joins the
// goroutine.
func startTicker(reg *obs.Registry, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		var prevOps obs.HistSnapshot
		var prevHits, prevMisses int64
		var prevSpread, prevL1, prevShared int64
		last := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				elapsed := now.Sub(last)
				last = now
				var cur obs.HistSnapshot
				reg.VisitHistograms(func(name, _ string, h *obs.Histogram) {
					if name == cacheproto.PoolOpLatencyName {
						cur.Add(h.Snapshot())
					}
				})
				iv := cur.Sub(prevOps)
				prevOps = cur
				snap := reg.Snapshot()
				hits := snap.SumCounters("cachegenie_genie_hits_total")
				misses := snap.SumCounters("cachegenie_genie_misses_total")
				dh, dm := hits-prevHits, misses-prevMisses
				prevHits, prevMisses = hits, misses
				hit := "   -"
				if dh+dm > 0 {
					hit = fmt.Sprintf("%.2f", float64(dh)/float64(dh+dm))
				}
				breakers := ""
				for _, s := range snap.GaugeValues(cacheproto.PoolBreakerGaugeName) {
					breakers += string("COH?"[min(int(s), 3)])
				}
				if breakers == "" {
					breakers = "-"
				}
				// Hot-key mitigation activity, per interval: reads rotated
				// across replicas, reads absorbed by the L1 near-cache, and
				// misses that piggybacked on a coalesced single-flight load.
				// All zero when the mitigations are off.
				spread := snap.SumCounters("cachegenie_hotkey_spread_reads_total")
				l1hits := snap.SumCounters("cachegenie_l1_hits_total")
				shared := snap.SumCounters("cachegenie_singleflight_shared_total")
				dspread, dl1, dshared := spread-prevSpread, l1hits-prevL1, shared-prevShared
				prevSpread, prevL1, prevShared = spread, l1hits, shared
				fmt.Printf("tick %9.0f cache-ops/s  p50=%-10v p99=%-10v hit=%s  breakers=%s  spread=%d l1hit=%d coalesced=%d\n",
					float64(iv.Count)/elapsed.Seconds(),
					time.Duration(iv.Quantile(0.50)).Round(time.Microsecond),
					time.Duration(iv.Quantile(0.99)).Round(time.Microsecond),
					hit, breakers, dspread, dl1, dshared)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func main() {
	experiment := flag.String("experiment", "all", "experiment to run (all, exp1, table2, exp2, exp3, exp4, exp4b, exp5, exp8, exp10, exp12, exp13, micro, effort, ablation)")
	scale := flag.Int("scale", 50, "latency scale divisor (1 = paper-absolute latencies, slower)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	async := flag.Bool("async", false, "route trigger cache maintenance through the async invalidation bus")
	batchWindow := flag.Duration("batch-window", 0, "invalidation bus window (0 = bus default)")
	transportFlag := flag.String("transport", "inprocess", "cache transport: inprocess or remote (real TCP cacheproto nodes)")
	cacheAddrs := flag.String("cache-addrs", "", "comma-separated geniecache addresses for -transport remote (empty = launch loopback nodes)")
	replicas := flag.Int("replicas", 0, "cache ring replication factor R (0/1 = single-owner routing; clamped to the node count)")
	zipfS := flag.Float64("zipf-s", 0, "direct rank-frequency zipf exponent for user popularity (0 = paper's duality-form sampler; exp13 sweeps s=1.1 itself)")
	flashCrowd := flag.Int("flash-crowd", 0, "percentage of page loads redirected to one viral page (0 = off; exp13 sets its own)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json, /healthz and /debug/pprof on this address while experiments run (empty = disabled)")
	tick := flag.Duration("tick", 0, "print a live cache-tier line (ops/s, p50/p99, hit rate, breaker states) at this interval (0 = off)")
	// External crash drill (exp12) against a real geniedb; see the doc comment.
	dbAddr := flag.String("db-addr", "", "exp12 phases: geniedb dbproto address")
	duration := flag.Duration("duration", 10*time.Second, "-exp12-phase load: how long to drive geniedb (the drill kills it partway through)")
	exp12Phase := flag.String("exp12-phase", "", "external crash drill phase: load (drive geniedb until it is killed) or verify (audit the restarted geniedb + cache tier)")
	exp12State := flag.String("exp12-state", "exp12_state.json", "exp12 phases: journal file handed from load to verify across the crash")
	flag.Parse()

	transport, err := workload.ParseTransport(*transportFlag)
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	if *cacheAddrs != "" {
		for _, a := range strings.Split(*cacheAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	if *exp12Phase != "" {
		if *dbAddr == "" {
			log.Fatal("genieload: -exp12-phase requires -db-addr (the geniedb under drill)")
		}
		switch *exp12Phase {
		case "load":
			if err := workload.Exp12Load(*dbAddr, *exp12State, 8, *duration, log.Printf); err != nil {
				log.Fatalf("genieload: %v", err)
			}
			fmt.Printf("exp12 load journal written to %s\n", *exp12State)
		case "verify":
			res, err := workload.Exp12Verify(*dbAddr, addrs, *exp12State, log.Printf)
			if err != nil {
				log.Fatalf("genieload: %v", err)
			}
			if err := workload.WriteExp12JSON("BENCH_exp12.json", res); err != nil {
				log.Fatalf("genieload: %v", err)
			}
			fmt.Println("audit written to BENCH_exp12.json")
		default:
			log.Fatalf("genieload: unknown -exp12-phase %q (want load or verify)", *exp12Phase)
		}
		return
	}
	// A bad -cache-addrs list used to surface as a silent zero-hit run;
	// fail fast with per-node dial errors before any experiment starts.
	if len(addrs) > 0 {
		if err := workload.PreflightCacheAddrs(addrs, 5*time.Second); err != nil {
			log.Fatalf("genieload: cache tier preflight failed:\n%v", err)
		}
	}
	opt := workload.ExpOptions{
		LatencyScale: *scale, Quick: *quick, Out: os.Stdout,
		Async: *async, BatchWindow: *batchWindow,
		Transport: transport, CacheAddrs: addrs,
		Replicas: *replicas,
		ZipfS:    *zipfS, FlashCrowdPct: *flashCrowd,
	}
	if *metricsAddr != "" || *tick > 0 {
		reg := obs.NewRegistry()
		opt.Metrics = reg
		if *metricsAddr != "" {
			ms, err := obs.Serve(*metricsAddr, reg,
				obs.BreakerHealth(reg, cacheproto.PoolBreakerGaugeName))
			if err != nil {
				log.Fatalf("genieload: %v", err)
			}
			defer ms.Close()
			fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ms.Addr)
		}
		if *tick > 0 {
			defer startTicker(reg, *tick)()
		}
	}
	run := func(name string, fn func() error) {
		fmt.Printf("\n== %s ==\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("-- %s done in %v\n", name, time.Since(start).Round(time.Millisecond))
	}

	all := *experiment == "all"
	matched := all

	if all || *experiment == "micro" {
		matched = true
		run("§5.3 microbenchmarks", func() error {
			ml, err := workload.MicroLookup(opt)
			if err != nil {
				return err
			}
			fmt.Printf("db B+tree lookup: %v   cache lookup: %v   ratio: %.1fx (paper: 10-25x)\n",
				ml.DBLookup.Round(time.Microsecond), ml.CacheLookup.Round(time.Microsecond), ml.Ratio)
			mt, err := workload.MicroTrigger(opt)
			if err != nil {
				return err
			}
			fmt.Printf("plain INSERT: %v   no-op trigger: %v (+%.0f%%)   trigger+connect: %v (+%.0f%%)   per cache op: %v\n",
				mt.PlainInsert.Round(time.Microsecond), mt.NoopTrigger.Round(time.Microsecond), mt.NoopOverheadPct,
				mt.ConnectTrigger.Round(time.Microsecond), mt.TotalOverheadPct,
				mt.PerCacheOp.Round(time.Microsecond))
			fmt.Println("(paper: 6.3ms plain, 6.5ms no-op, 11.9ms with connect, 0.2ms per op; overheads 3%-400%)")
			return nil
		})
	}
	if all || *experiment == "effort" {
		matched = true
		run("§5.2 programmer effort", func() error {
			rep, err := workload.Effort()
			if err != nil {
				return err
			}
			fmt.Printf("cached objects declared : %d   (paper: 14)\n", rep.CachedObjects)
			fmt.Printf("app lines changed       : %d cacheable(...) calls (paper: ~20 lines)\n", rep.AppLinesChanged)
			fmt.Printf("triggers generated      : %d   (paper: 48)\n", rep.Triggers)
			fmt.Printf("trigger source lines    : %d   (paper: ~1720)\n", rep.GeneratedLines)
			return nil
		})
	}
	if all || *experiment == "exp1" {
		matched = true
		run("Experiment 1 (Fig 2a/2b): throughput & latency vs clients", func() error {
			_, err := workload.Exp1(opt, nil)
			return err
		})
	}
	if all || *experiment == "table2" {
		matched = true
		run("Table 2: per-page-type latency at 15 clients", func() error {
			_, err := workload.Exp1PageTable(opt)
			return err
		})
	}
	if all || *experiment == "exp2" {
		matched = true
		run("Experiment 2 (Fig 3a): read/write mix", func() error {
			_, err := workload.Exp2(opt, nil)
			return err
		})
	}
	if all || *experiment == "exp3" {
		matched = true
		run("Experiment 3 (Fig 3b): zipf skew", func() error {
			_, err := workload.Exp3(opt, nil)
			return err
		})
	}
	if all || *experiment == "exp4" {
		matched = true
		run("Experiment 4 (Fig 3c): cache size", func() error {
			_, err := workload.Exp4(opt, nil)
			return err
		})
	}
	if all || *experiment == "exp4b" {
		matched = true
		run("Experiment 4 variant: cache colocated with the database", func() error {
			_, err := workload.Exp4Colocated(opt)
			return err
		})
	}
	if all || *experiment == "exp5" {
		matched = true
		run("Experiment 5: trigger overhead under load", func() error {
			_, err := workload.Exp5(opt)
			return err
		})
	}
	if all || *experiment == "exp8" {
		matched = true
		run("Experiment 8: node failure (circuit breaker, live ring membership)", func() error {
			res, err := workload.Exp8(opt)
			if err != nil {
				return err
			}
			if err := workload.WriteExp8JSON("BENCH_exp8.json", res); err != nil {
				return err
			}
			fmt.Println("timeline written to BENCH_exp8.json")
			return nil
		})
	}
	if all || *experiment == "exp10" {
		matched = true
		run("Experiment 10: replica-aware cluster tier (R-way replication, failover, key handoff)", func() error {
			res, err := workload.Exp10(opt)
			if err != nil {
				return err
			}
			if err := workload.WriteExp10JSON("BENCH_exp10.json", res); err != nil {
				return err
			}
			fmt.Println("timelines written to BENCH_exp10.json")
			return nil
		})
	}
	if all || *experiment == "exp12" {
		matched = true
		run("Experiment 12: crash drill (WAL recovery + recovery-epoch cache flush)", func() error {
			res, err := workload.Exp12(opt)
			if err != nil {
				return err
			}
			if err := workload.WriteExp12JSON("BENCH_exp12.json", res); err != nil {
				return err
			}
			fmt.Println("drill written to BENCH_exp12.json")
			return nil
		})
	}
	if all || *experiment == "exp13" {
		matched = true
		run("Experiment 13: hot keys (zipf skew + flash crowd; spreading, L1, single-flight)", func() error {
			res, err := workload.Exp13(opt)
			if err != nil {
				return err
			}
			if err := workload.WriteExp13JSON("BENCH_exp13.json", res); err != nil {
				return err
			}
			fmt.Println("sweep written to BENCH_exp13.json")
			return nil
		})
	}
	if all || *experiment == "ablation" {
		matched = true
		run("Ablation: template-based invalidation baseline", func() error {
			_, err := workload.AblationTemplateInvalidation(opt)
			return err
		})
	}
	if !matched {
		log.Fatalf("unknown experiment %q", *experiment)
	}
}
