// Package bench is geniebench: the repository's one page-load benchmark.
// It owns its driver, page generator, stack assembly, decorators, audit and
// result schema, and imports only the layer packages it measures, so the
// experiment harness (internal/workload, internal/latency, internal/loadctl)
// can be reshaped without breaking the instrument. The latency model is off
// everywhere: loopback TCP, real fsync, no sleeps.
package bench

import (
	"math"
	"math/rand"
	"sort"

	"cachegenie/internal/core"
	"cachegenie/internal/social"
)

// Load shape shared by every workload: a closed loop of web workers, each
// waiting for its page, one per core of the 2-core reference box. A session
// is Login, PagesPerSession pages from the mix, Logout (paper §5.1).
const (
	Clients         = 2
	PagesPerSession = 10
	// flashUser is the user whose bookmark page a flash crowd stampedes:
	// rank 1, so the crowd lands on an already-hot key.
	flashUser = 1
)

// dataset is the seeded social graph every workload starts from.
var dataset = social.SeedConfig{
	Users: 2000, UniqueBookmarks: 500, MaxBookmarksPer: 8,
	MaxFriendsPer: 10, MaxInvitesPer: 6, MaxWallPosts: 12,
}

// Workload is one traffic mix over one stack shape. The fields are traffic
// and deployment properties; no code below the harness sees the name.
type Workload struct {
	Name string
	// Why is the one-line rationale recorded in BENCHMARK.json.
	Why string
	// WritePct is the share of CreateBM+AcceptFR pages (1:1); the rest are
	// LookupBM:LookupFBM = 5:3.
	WritePct int
	// ZipfS is the user-popularity exponent: P(rank r) ∝ r^-s.
	ZipfS float64
	// FlashCrowdPct redirects that share of in-session pages to user 1's
	// LookupBM.
	FlashCrowdPct int
	Strategy      core.Strategy
	// Async routes trigger maintenance through the invalidation bus.
	Async bool
	// Replicas > 0 puts two loopback cacheproto nodes behind a cluster ring
	// with that replication factor; 0 uses one in-process kvcache.Store.
	Replicas int
	// CacheBytes caps the in-process store (0 = unbounded).
	CacheBytes int64
	// Durable gives sqldb a data directory with fsync on.
	Durable bool
	// WarmupSessions per client run unmeasured inside set-up.
	WarmupSessions int
	// Sessions per client make up the measured window. Work is fixed, not
	// timed: the count was calibrated once so the window lasts RunSeconds on
	// the 2-core reference box, then frozen, because the state the pages
	// grow (bookmark and friend lists of hot users) makes later pages
	// dearer and a timed window would feed speed back into the work done.
	Sessions int
}

// Workloads are the four the benchmark runs, in report order.
var Workloads = []Workload{
	{
		Name: "pinax_default",
		Why: "paper's headline deployment: 20% writes, zipf 1.0, sync update-in-place over 2 TCP cache nodes; " +
			"the read-hit wire path does almost all the work, DB and WAL almost none",
		WritePct: 20, ZipfS: 1.0, Strategy: core.UpdateInPlace, Replicas: 1, WarmupSessions: 250, Sessions: 2000,
	},
	{
		Name: "write_durable",
		Why: "50% writes on a durable sqldb with fsync on: parse, table locks, trigger CAS round trips, " +
			"WAL group commit and crash recovery do the work; a read-path gain must show no change here",
		WritePct: 50, ZipfS: 1.0, Strategy: core.UpdateInPlace, Replicas: 1, Durable: true, WarmupSessions: 60, Sessions: 800,
	},
	{
		Name: "miss_evict",
		Why: "5% writes, near-uniform users, invalidate strategy, in-process store capped at ~5% of the footprint: " +
			"miss, sqldb read, populate, LRU eviction; wire and ring are bypassed so they must show no change",
		WritePct: 5, ZipfS: 0.3, Strategy: core.Invalidate, CacheBytes: 128 << 10, WarmupSessions: 500, Sessions: 6600,
	},
	{
		Name: "hot_async_r2",
		Why: "zipf 1.1 plus a 25% flash crowd on one page, async invalidation bus, 2 TCP nodes at R=2: " +
			"bus queueing, replica fan-out and mop batches do the work while reads pound a few keys",
		WritePct: 20, ZipfS: 1.1, FlashCrowdPct: 25, Strategy: core.UpdateInPlace, Async: true, Replicas: 2,
		WarmupSessions: 250, Sessions: 1800,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// page is one generated input: the stack only ever receives these.
type page struct {
	typ social.PageType
	uid int64
	seq int64
}

// isRead and isWrite classify the paper's four actions; Login and Logout
// are bookkeeping and belong to neither.
func isRead(p social.PageType) bool {
	return p == social.PageLookupBM || p == social.PageLookupFBM
}

func isWrite(p social.PageType) bool {
	return p == social.PageCreateBM || p == social.PageAcceptFR
}

// zipf maps a uniform variate to a rank in 1..n with P(r) ∝ r^-s, through
// a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int64 {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return int64(i + 1)
}

// userBlock is how many sessions one stratified block of users covers.
const userBlock = 128

// pageGen is one client's deterministic page stream: a pure function of
// (seed, client index). Sessions are generated one at a time, outside the
// timed region of any page.
//
// Users and page types are drawn by stratified sampling, not independently:
// each block of userBlock sessions takes one jittered draw from each of
// userBlock equal slices of the popularity CDF, and each session one
// jittered draw from each of PagesPerSession equal slices of the page mix,
// both then shuffled. Every seed therefore gives the hot users the same
// share of sessions and every session the same mix, to within one draw; the
// seed decides the order and the tail. Independent draws would let the
// handful of users who carry most of the traffic do 5 % more or fewer
// writes from one seed to the next, and since the lists those writes grow
// make later pages dearer, write-page p95 moved by ±25 % with the seed.
type pageGen struct {
	w      Workload
	rng    *rand.Rand
	users  *zipf
	client int64
	n      int64 // pages generated so far
	block  []int64
	buf    []page
}

func newPageGen(w Workload, users *zipf, seed int64, client int) *pageGen {
	return &pageGen{
		w: w, users: users, client: int64(client),
		rng: rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17)),
		buf: make([]page, 0, PagesPerSession+2),
	}
}

// nextSeq is unique across clients and clear of the ids seeding assigns.
func (g *pageGen) nextSeq() int64 {
	g.n++
	return 1<<20 + g.n*Clients + g.client
}

// nextUser pops the next session's user, refilling the block when empty.
func (g *pageGen) nextUser() int64 {
	if len(g.block) == 0 {
		for j := 0; j < userBlock; j++ {
			g.block = append(g.block, g.users.rank((float64(j)+g.rng.Float64())/userBlock))
		}
		g.rng.Shuffle(len(g.block), func(a, b int) { g.block[a], g.block[b] = g.block[b], g.block[a] })
	}
	uid := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	return uid
}

// pageType maps a uniform variate to the mix: write pages split
// CreateBM:AcceptFR = 1:1, read pages LookupBM:LookupFBM = 5:3.
func (g *pageGen) pageType(u float64) social.PageType {
	write := float64(g.w.WritePct) / 100
	switch {
	case u < write/2:
		return social.PageCreateBM
	case u < write:
		return social.PageAcceptFR
	case u < write+(1-write)*5/8:
		return social.PageLookupBM
	}
	return social.PageLookupFBM
}

// session returns the next session's pages; the slice is reused.
func (g *pageGen) session() []page {
	uid := g.nextUser()
	g.buf = append(g.buf[:0], page{typ: social.PageLogin, uid: uid})
	for k := 0; k < PagesPerSession; k++ {
		p := page{typ: g.pageType((float64(k) + g.rng.Float64()) / PagesPerSession), uid: uid}
		if g.w.FlashCrowdPct > 0 && g.rng.Intn(100) < g.w.FlashCrowdPct {
			p.typ, p.uid = social.PageLookupBM, flashUser
		}
		g.buf = append(g.buf, p)
	}
	mixed := g.buf[1:]
	g.rng.Shuffle(len(mixed), func(a, b int) { mixed[a], mixed[b] = mixed[b], mixed[a] })
	g.buf = append(g.buf, page{typ: social.PageLogout, uid: uid})
	for i := range g.buf {
		g.buf[i].seq = g.nextSeq()
	}
	return g.buf
}
