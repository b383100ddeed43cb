package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/obs"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
)

// RunConfig drives one experiment run (paper §5.1 defaults: 15 clients,
// 100 sessions each, 10 page loads per session, 20% write pages, zipf 2.0).
type RunConfig struct {
	Clients         int
	Sessions        int // per client
	PagesPerSession int
	// WritePct is the percentage of write pages (CreateBM + AcceptFR) in
	// the mix; reads split LookupBM:LookupFBM = 5:3 and writes split
	// CreateBM:AcceptFR = 1:1, preserving the paper's 50:30:10:10 default
	// at WritePct = 20.
	WritePct int
	ZipfA    float64
	// ZipfS, when > 0, replaces the paper's duality-form ZipfA sampler with
	// a direct rank-frequency zipf: user rank r is drawn with probability
	// proportional to r^-s. This is the hot-key engineering knob — s = 1.1
	// concentrates a large share of all sessions on a handful of celebrity
	// users, the skew the spreading/L1/single-flight mitigations target —
	// whereas ZipfA expresses the paper's sessions-per-user model (§5.1).
	ZipfS float64
	// FlashCrowdPct redirects that percentage of in-session page loads to a
	// single page — a LookupBM of the flash-crowd user — regardless of which
	// user the session belongs to. It models the everyone-loads-one-page
	// stampede (a link going viral): one key takes FlashCrowdPct% of all
	// traffic on top of whatever the zipf tail sends it. 0 disables.
	FlashCrowdPct int
	// WarmupSessions run before measurement starts (paper: warm-up with 40
	// parallel clients x 100 sessions; scale down).
	WarmupSessions int
	RngSeed        int64
}

// flashCrowdUser is the user whose bookmark page a flash crowd stampedes
// (rank 1 — the most popular user under any zipf, so the crowd lands on an
// already-hot key, the worst case for one node).
const flashCrowdUser = 1

// DefaultRun returns paper-shaped defaults scaled for quick execution.
func DefaultRun() RunConfig {
	return RunConfig{
		Clients:         15,
		Sessions:        10,
		PagesPerSession: 10,
		WritePct:        20,
		ZipfA:           2.0,
		WarmupSessions:  30,
		RngSeed:         42,
	}
}

// PageStats summarizes one page type's latencies.
type PageStats struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	// P999 is the tail the hot-key experiments watch: a stampede that
	// queues on one node or one DB query shows up here long before it
	// moves P99.
	P999 time.Duration
	Max  time.Duration
}

// Report is the outcome of a run.
type Report struct {
	Mode       Mode
	Elapsed    time.Duration
	Pages      int
	Errors     int
	Retries    int
	Throughput float64 // page loads per second (wall clock)
	ByPage     map[social.PageType]PageStats
}

// MeanLatency is the count-weighted mean page latency across page types
// (the Fig 2b series).
func (r Report) MeanLatency() time.Duration {
	var total time.Duration
	n := 0
	for _, st := range r.ByPage {
		total += st.Mean * time.Duration(st.Count)
		n += st.Count
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// String renders a compact single-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%-10s %8.1f pages/s  (%d pages, %d errors, %v)",
		r.Mode, r.Throughput, r.Pages, r.Errors, r.Elapsed.Round(time.Millisecond))
}

// recorder accumulates latencies per page type into obs histograms: memory
// stays O(buckets) per page type however many ops run (the raw-slice
// predecessor held every sample — hundreds of MB at millions of ops), and
// quantiles come from the bucketed distribution (within one bucket, ~±3.2%
// relative, of the exact order statistic). Max stays exact.
type recorder struct {
	mu     sync.Mutex
	byPage map[social.PageType]*obs.Histogram
}

func newRecorder() *recorder {
	return &recorder{byPage: make(map[social.PageType]*obs.Histogram)}
}

func (r *recorder) hist(p social.PageType) *obs.Histogram {
	r.mu.Lock()
	h := r.byPage[p]
	if h == nil {
		h = obs.NewHistogram()
		r.byPage[p] = h
	}
	r.mu.Unlock()
	return h
}

func (r *recorder) record(p social.PageType, d time.Duration) {
	r.hist(p).Observe(int64(d))
}

func (r *recorder) stats() map[social.PageType]PageStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[social.PageType]PageStats, len(r.byPage))
	for p, h := range r.byPage {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		out[p] = PageStats{
			Count: int(s.Count),
			Mean:  time.Duration(s.Mean()),
			P50:   time.Duration(s.Quantile(0.50)),
			P95:   time.Duration(s.Quantile(0.95)),
			P99:   time.Duration(s.Quantile(0.99)),
			P999:  time.Duration(s.Quantile(0.999)),
			Max:   time.Duration(s.Max),
		}
	}
	return out
}

// mix samples page types per the configured write percentage.
type mix struct {
	writePct int
}

func (m mix) sample(rng *rand.Rand) social.PageType {
	if rng.Intn(100) < m.writePct {
		if rng.Intn(2) == 0 {
			return social.PageCreateBM
		}
		return social.PageAcceptFR
	}
	// Reads split 5:3 between LookupBM and LookupFBM.
	if rng.Intn(8) < 5 {
		return social.PageLookupBM
	}
	return social.PageLookupFBM
}

// Run executes the workload against the stack and reports metrics.
func Run(stack *Stack, cfg RunConfig) (Report, error) {
	if cfg.Clients <= 0 || cfg.Sessions <= 0 {
		return Report{}, errors.New("workload: RunConfig needs Clients and Sessions")
	}
	if cfg.PagesPerSession <= 0 {
		cfg.PagesPerSession = 10
	}
	if cfg.ZipfA <= 0 {
		cfg.ZipfA = 2.0
	}
	users := stack.App.NumUsers
	if users == 0 {
		return Report{}, errors.New("workload: stack not seeded")
	}
	var sampler interface{ Sample(*rand.Rand) int }
	if cfg.ZipfS > 0 {
		sampler = NewZipf(users, cfg.ZipfS)
	} else {
		sampler = NewUserSampler(users, cfg.ZipfA, rand.New(rand.NewSource(cfg.RngSeed+31)))
	}
	var seq atomic.Int64
	seq.Store(1 << 20) // clear of seed-assigned sequence space

	session := func(rng *rand.Rand, rec *recorder, errs, retries *atomic.Int64) {
		uid := int64(sampler.Sample(rng))
		pages := make([]social.PageType, 0, cfg.PagesPerSession+2)
		pages = append(pages, social.PageLogin)
		m := mix{writePct: cfg.WritePct}
		for i := 0; i < cfg.PagesPerSession; i++ {
			pages = append(pages, m.sample(rng))
		}
		pages = append(pages, social.PageLogout)
		for _, p := range pages {
			pageUID := uid
			if cfg.FlashCrowdPct > 0 && p != social.PageLogin && p != social.PageLogout &&
				rng.Intn(100) < cfg.FlashCrowdPct {
				// Flash crowd: this page load is everyone hitting the same
				// viral page, whoever this session belongs to.
				p = social.PageLookupBM
				pageUID = flashCrowdUser
			}
			start := time.Now()
			err := stack.App.RunPage(p, pageUID, seq.Add(1))
			if err != nil && errors.Is(err, sqldb.ErrLockTimeout) {
				// Deadlock victim: retry once (paper §3.3 proposes exactly
				// timeout-based deadlock resolution).
				if retries != nil {
					retries.Add(1)
				}
				err = stack.App.RunPage(p, pageUID, seq.Add(1))
			}
			if err != nil && errs != nil {
				errs.Add(1)
			}
			if rec != nil {
				rec.record(p, time.Since(start))
			}
		}
	}

	// Warm-up (unrecorded).
	if cfg.WarmupSessions > 0 {
		var wg sync.WaitGroup
		per := (cfg.WarmupSessions + cfg.Clients - 1) / cfg.Clients
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.RngSeed + int64(c)*7919))
				for s := 0; s < per; s++ {
					session(rng, nil, nil, nil)
				}
			}(c)
		}
		wg.Wait()
		if stack.Genie != nil {
			stack.Genie.FlushInvalidations() // warm-up maintenance stays out of the measured window
		}
	}

	rec := newRecorder()
	var errCount, retryCount atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.RngSeed + 1000003 + int64(c)*104729))
			for s := 0; s < cfg.Sessions; s++ {
				session(rng, rec, &errCount, &retryCount)
			}
		}(c)
	}
	wg.Wait()
	if stack.Genie != nil {
		// Async mode: the drain is part of the measured work, so throughput
		// never counts maintenance the cache hasn't absorbed yet.
		stack.Genie.FlushInvalidations()
	}
	elapsed := time.Since(start)

	byPage := rec.stats()
	pages := 0
	for _, st := range byPage {
		pages += st.Count
	}
	rep := Report{
		Mode:       stack.Config.Mode,
		Elapsed:    elapsed,
		Pages:      pages,
		Errors:     int(errCount.Load()),
		Retries:    int(retryCount.Load()),
		Throughput: float64(pages) / elapsed.Seconds(),
		ByPage:     byPage,
	}
	return rep, nil
}
