package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/obs"
	"cachegenie/internal/social"
)

// ---------- Experiment 13: hot keys under zipf skew + flash crowd ----------
//
// The replicated tier of Experiments 10-12 balances *keys* across nodes; it
// does nothing about a single key taking a disproportionate share of all
// traffic. This experiment makes that failure mode concrete — a zipf s=1.1
// user popularity plus a flash crowd stampeding one page — and measures the
// three mitigations independently and together:
//
//   - spread:       detected-hot reads rotate over the full replica set
//                   (cluster popularity sampler + rotated routing)
//   - l1:           a small lease-stamped near-cache in each client pool
//                   absorbs hot reads before they reach any node
//   - singleflight: concurrent misses of one key coalesce into a single
//                   database load
//
// Reported per configuration: read-page tail latency (p99/p999 — the tail
// is where one saturated node or a miss stampede shows first), per-node get
// imbalance (max/mean of per-node get counts — the spreading target), and
// the database read loads actually run (the single-flight target).

// Exp13Nodes is the ring size; Exp13Replicas the replication factor hot
// reads can spread over.
const (
	Exp13Nodes    = 4
	Exp13Replicas = 2
)

// Exp13ZipfS is the rank-frequency exponent of the user popularity
// (RunConfig.ZipfS); Exp13FlashPct the share of page loads redirected to
// the viral page (RunConfig.FlashCrowdPct).
const (
	Exp13ZipfS    = 1.1
	Exp13FlashPct = 25
)

// exp13HotKeyWindow / exp13HotKeyThreshold tune the popularity sampler for
// bench-scale runs: small enough that a hot key is flagged within one quick
// phase, high enough that the zipf tail stays cold.
const (
	exp13HotKeyWindow    = 4096
	exp13HotKeyThreshold = 64
)

// exp13L1Entries sizes the per-pool near-cache; a few thousand entries, the
// "absorb hot-key storms, don't mirror the node" shape.
const exp13L1Entries = 4096

// Exp13Mitigations selects which hot-key mitigations a configuration arms.
type Exp13Mitigations struct {
	Spread       bool
	L1           bool
	SingleFlight bool
}

// Name renders the configuration label used in logs and JSON.
func (m Exp13Mitigations) Name() string {
	switch m {
	case Exp13Mitigations{}:
		return "all-off"
	case Exp13Mitigations{Spread: true, L1: true, SingleFlight: true}:
		return "all-on"
	case Exp13Mitigations{Spread: true}:
		return "spread"
	case Exp13Mitigations{L1: true}:
		return "l1"
	case Exp13Mitigations{SingleFlight: true}:
		return "singleflight"
	}
	return fmt.Sprintf("spread=%v,l1=%v,sf=%v", m.Spread, m.L1, m.SingleFlight)
}

// Exp13Configs is the sweep: everything off, each mitigation alone, all on.
func Exp13Configs() []Exp13Mitigations {
	return []Exp13Mitigations{
		{},
		{Spread: true},
		{L1: true},
		{SingleFlight: true},
		{Spread: true, L1: true, SingleFlight: true},
	}
}

// Exp13Point is one configuration's measurement.
type Exp13Point struct {
	Name                       string
	Spread, L1on, SingleFlight bool

	Throughput float64
	Errors     int
	// Read-page latency (LookupBM — the page the flash crowd stampedes).
	ReadMean, ReadP99, ReadP999 time.Duration

	// NodeGets is each node's get count (hits+misses at the store end) in
	// ring order; Imbalance is max/mean over those counts — 1.0 is perfect
	// balance, Exp13Nodes is everything on one node.
	NodeGets  []int64
	Imbalance float64

	// DBReadLoads is how many read-miss database loads actually ran:
	// misses minus the loads that piggybacked on a concurrent leader.
	DBReadLoads int64

	HotKeys cluster.HotKeyStats
	L1Stats cacheproto.L1Stats
	// FlightLeads/FlightShared are the single-flight counters (zero with
	// the mitigation off).
	FlightLeads, FlightShared int64

	// Metrics is the registry dump captured before teardown (the CI bench
	// smoke uploads the all-on point's dump).
	Metrics []byte
}

// Exp13Result is the full Experiment 13 report.
type Exp13Result struct {
	Points []Exp13Point
}

// Point returns the named configuration's measurement, if present.
func (r Exp13Result) Point(name string) (Exp13Point, bool) {
	for _, p := range r.Points {
		if p.Name == name {
			return p, true
		}
	}
	return Exp13Point{}, false
}

// BuildStackForExp13 assembles one Experiment 13 stack: ModeUpdate over
// Exp13Nodes loopback cacheproto servers at R=Exp13Replicas, with the given
// mitigations armed. Remote transport is structural — the L1 near-cache
// fronts a network round trip, and per-node imbalance is only meaningful
// when nodes are actual servers.
func BuildStackForExp13(opt ExpOptions, mit Exp13Mitigations) (*Stack, error) {
	if len(opt.CacheAddrs) > 0 {
		return nil, fmt.Errorf("workload: exp13 reads per-node store counters; it cannot drive external -cache-addrs servers")
	}
	return BuildStack(StackConfig{
		Mode:              ModeUpdate,
		Seed:              opt.seed(),
		RngSeed:           42,
		LatencyScale:      opt.scale(),
		BufferPoolPages:   expPoolPages,
		CacheNodes:        Exp13Nodes,
		Replicas:          Exp13Replicas,
		Transport:         TransportRemote,
		AsyncInvalidation: opt.Async,
		BatchWindow:       opt.BatchWindow,
		HotKeySpread:      mit.Spread,
		HotKeyWindow:      exp13HotKeyWindow,
		HotKeyThreshold:   exp13HotKeyThreshold,
		L1Entries:         l1Entries(mit.L1),
		SingleFlight:      mit.SingleFlight,
		Obs:               opt.Metrics,
	})
}

func l1Entries(on bool) int {
	if on {
		return exp13L1Entries
	}
	return 0
}

// Exp13 runs the zipf + flash-crowd workload once per mitigation
// configuration. Expected shape: all-off concentrates gets on the hot key's
// preferred node (imbalance well above 1) and pays for it in read tail
// latency; spread flattens the imbalance; l1 removes hot reads from the
// wire entirely; singleflight collapses the stampede's database loads to
// ~1 per hot key per miss window; all-on does all three at once.
func Exp13(opt ExpOptions) (Exp13Result, error) {
	var res Exp13Result
	for _, mit := range Exp13Configs() {
		p, err := exp13Point(opt, mit)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
	}
	if off, ok := res.Point("all-off"); ok {
		if on, ok2 := res.Point("all-on"); ok2 {
			opt.logf("exp13 all-off vs all-on: p999 %v -> %v, imbalance %.2f -> %.2f, db read loads %d -> %d",
				off.ReadP999.Round(time.Microsecond), on.ReadP999.Round(time.Microsecond),
				off.Imbalance, on.Imbalance, off.DBReadLoads, on.DBReadLoads)
		}
	}
	return res, nil
}

func exp13Point(opt ExpOptions, mit Exp13Mitigations) (Exp13Point, error) {
	p := Exp13Point{Name: mit.Name(), Spread: mit.Spread, L1on: mit.L1, SingleFlight: mit.SingleFlight}
	// Fresh registry per point unless the caller supplied one: each point's
	// loopback servers get fresh ports, and stale series would pile up.
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		opt.Metrics = reg
	}
	st, err := BuildStackForExp13(opt, mit)
	if err != nil {
		return p, err
	}
	defer st.Close()

	runCfg := opt.runCfg(15, 20, 2.0)
	runCfg.ZipfS = Exp13ZipfS
	runCfg.FlashCrowdPct = Exp13FlashPct
	rep, err := Run(st, runCfg)
	if err != nil {
		return p, err
	}

	p.Throughput = rep.Throughput
	p.Errors = rep.Errors
	read := rep.ByPage[social.PageLookupBM]
	p.ReadMean, p.ReadP99, p.ReadP999 = read.Mean, read.P99, read.P999

	// Per-node get imbalance from the store ends (they count even what the
	// wire never sees — nothing here, but symmetric with exp10's reading).
	var total, max int64
	for _, store := range st.Stores {
		s := store.Stats()
		gets := s.Hits + s.Misses
		p.NodeGets = append(p.NodeGets, gets)
		total += gets
		if gets > max {
			max = gets
		}
	}
	if len(p.NodeGets) > 0 && total > 0 {
		mean := float64(total) / float64(len(p.NodeGets))
		p.Imbalance = float64(max) / mean
	}

	gs := st.Genie.Stats()
	p.FlightLeads, p.FlightShared = gs.FlightLeads, gs.FlightShared
	p.DBReadLoads = gs.Misses - gs.FlightShared
	tier := st.CacheTierStats()
	p.HotKeys = tier.HotKeys
	p.L1Stats = tier.L1

	opt.logf("exp13 %-12s %9.1f pages/s  read p99=%v p999=%v  imbalance=%.2f  db-loads=%d  (spread=%d repairs=%d, l1 hits=%d, sf shared=%d)",
		p.Name, p.Throughput, p.ReadP99.Round(time.Microsecond), p.ReadP999.Round(time.Microsecond),
		p.Imbalance, p.DBReadLoads,
		p.HotKeys.SpreadReads, p.HotKeys.SpreadRepairs, p.L1Stats.Hits, p.FlightShared)

	var dump bytes.Buffer
	if err := reg.WritePrometheus(&dump); err == nil {
		p.Metrics = dump.Bytes()
	}
	return p, nil
}

// ---------- BENCH_exp13.json ----------

// Exp13JSONPoint serializes one configuration.
type Exp13JSONPoint struct {
	Name                  string  `json:"name"`
	Spread                bool    `json:"spread"`
	L1                    bool    `json:"l1"`
	SingleFlight          bool    `json:"singleflight"`
	ThroughputPagesPerSec float64 `json:"throughput_pages_per_sec"`
	Errors                int     `json:"errors"`
	ReadMeanMs            float64 `json:"read_mean_ms"`
	ReadP99Ms             float64 `json:"read_p99_ms"`
	ReadP999Ms            float64 `json:"read_p999_ms"`
	NodeGets              []int64 `json:"node_gets"`
	Imbalance             float64 `json:"imbalance_max_over_mean"`
	DBReadLoads           int64   `json:"db_read_loads"`
	HotKeyObserved        int64   `json:"hotkey_observed"`
	HotKeyFlagged         int64   `json:"hotkey_flagged"`
	SpreadReads           int64   `json:"spread_reads"`
	SpreadRepairs         int64   `json:"spread_repairs"`
	L1Hits                int64   `json:"l1_hits"`
	L1Misses              int64   `json:"l1_misses"`
	L1Invalidations       int64   `json:"l1_invalidations"`
	FlightLeads           int64   `json:"singleflight_leads"`
	FlightShared          int64   `json:"singleflight_shared"`
}

// Exp13JSON is the BENCH_exp13.json document.
type Exp13JSON struct {
	Experiment    string           `json:"experiment"`
	Nodes         int              `json:"nodes"`
	Replicas      int              `json:"replicas"`
	ZipfS         float64          `json:"zipf_s"`
	FlashCrowdPct int              `json:"flash_crowd_pct"`
	Points        []Exp13JSONPoint `json:"points"`
}

// WriteExp13JSON records an Experiment 13 run as JSON at path (the CI bench
// smoke uploads BENCH_*.json files as workflow artifacts).
func WriteExp13JSON(path string, r Exp13Result) error {
	doc := Exp13JSON{
		Experiment: "exp13-hot-keys", Nodes: Exp13Nodes, Replicas: Exp13Replicas,
		ZipfS: Exp13ZipfS, FlashCrowdPct: Exp13FlashPct,
	}
	for _, p := range r.Points {
		doc.Points = append(doc.Points, Exp13JSONPoint{
			Name:                  p.Name,
			Spread:                p.Spread,
			L1:                    p.L1on,
			SingleFlight:          p.SingleFlight,
			ThroughputPagesPerSec: p.Throughput,
			Errors:                p.Errors,
			ReadMeanMs:            ms(p.ReadMean),
			ReadP99Ms:             ms(p.ReadP99),
			ReadP999Ms:            ms(p.ReadP999),
			NodeGets:              p.NodeGets,
			Imbalance:             p.Imbalance,
			DBReadLoads:           p.DBReadLoads,
			HotKeyObserved:        p.HotKeys.Observed,
			HotKeyFlagged:         p.HotKeys.Flagged,
			SpreadReads:           p.HotKeys.SpreadReads,
			SpreadRepairs:         p.HotKeys.SpreadRepairs,
			L1Hits:                p.L1Stats.Hits,
			L1Misses:              p.L1Stats.Misses,
			L1Invalidations:       p.L1Stats.Invalidations,
			FlightLeads:           p.FlightLeads,
			FlightShared:          p.FlightShared,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("workload: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
