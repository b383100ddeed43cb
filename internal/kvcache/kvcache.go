// Package kvcache implements the caching layer of the paper's stack: a
// memcached-semantics in-memory key-value store with LRU eviction under a
// byte-capacity budget, TTL expiry, and compare-and-swap (the memcached
// gets/cas pair CacheGenie's update-in-place triggers rely on, §3.2).
//
// The Cache interface is implemented by *Store (in-process), by the
// cacheproto TCP client (remote server), and by the cluster consistent-hash
// ring (one logical cache over many servers), so every layer of the system
// is interchangeable in tests and experiments. Besides memcached's per-key
// operations it includes the batch entry point, ApplyBatch: every cache
// applies a batch natively — the store under one lock hold per shard, the
// client as one pipelined mop exchange, the ring as one sub-batch per node.
//
// The Store is lock-striped the way memcached is: keys hash onto N
// independent shards (N defaults to the next power of two >= 4x GOMAXPROCS,
// overridable with WithShards), each owning its map, LRU list, slice of the
// byte budget, and statistics. Concurrent operations on different shards
// never contend, so a single node scales with cores instead of serializing
// every read on one global mutex and LRU list.
package kvcache

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CasResult reports the outcome of a compare-and-swap.
type CasResult int

// CAS outcomes, mirroring memcached's STORED / EXISTS / NOT_FOUND.
const (
	CasStored   CasResult = iota // swap succeeded
	CasConflict                  // token stale: someone wrote in between
	CasNotFound                  // key vanished (deleted or evicted)
)

// String implements fmt.Stringer.
func (r CasResult) String() string {
	switch r {
	case CasStored:
		return "STORED"
	case CasConflict:
		return "EXISTS"
	case CasNotFound:
		return "NOT_FOUND"
	}
	return "UNKNOWN"
}

// Cache is the operation set CacheGenie needs from its caching layer.
type Cache interface {
	// Get returns the value under key.
	Get(key string) ([]byte, bool)
	// Gets returns the value and a CAS token for a later Cas. No caller in
	// the root module reads and swaps through Gets and Cas any more (a
	// write-set flush batches them); they stay because bench/trace.go
	// forwards them.
	Gets(key string) ([]byte, uint64, bool)
	// Set unconditionally stores value with a TTL (0 = no expiry).
	Set(key string, value []byte, ttl time.Duration)
	// Add stores value only if key is absent; reports whether it stored.
	Add(key string, value []byte, ttl time.Duration) bool
	// Cas stores value only if the key's token still equals cas.
	Cas(key string, value []byte, ttl time.Duration, cas uint64) CasResult
	// Delete removes key; reports whether it was present.
	Delete(key string) bool
	// Incr atomically adds delta to a decimal-integer value; reports the
	// new value, or ok=false if the key is absent or non-numeric.
	Incr(key string, delta int64) (int64, bool)
	// FlushAll empties the cache.
	FlushAll()
	// ApplyBatch applies many operations in one exchange (see BatchOp).
	BatchApplier
}

// Stats are cumulative counters plus current occupancy.
type Stats struct {
	Hits         int64
	Misses       int64
	Sets         int64
	Deletes      int64
	Evictions    int64
	Expired      int64
	CasConflicts int64
	Items        int64
	BytesUsed    int64
	BytesLimit   int64
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entryOverhead approximates per-item bookkeeping bytes, as memcached's
// item header does.
const entryOverhead = 64

// Expiry-sweep pacing: every sweepEveryWrites writes a shard walks up to
// sweepScanEntries entries from its LRU tail, reaping expired ones. Lazy
// expiry alone lets a dead entry squat on the byte budget until someone
// touches its key; on TTL-heavy workloads those squatters would evict live
// keys. The sweep amortizes to <1 extra entry visit per write.
const (
	sweepEveryWrites = 64
	sweepScanEntries = 32
)

type entry struct {
	key     string
	value   []byte
	casID   uint64
	expires int64 // unixnano; 0 = never
	lruEl   *list.Element
}

// size charges the value's backing-array capacity, not its length: buffer
// reuse can leave cap > len, and a budget that only counted len would let
// real memory drift above the configured limit.
func (e *entry) size() int64 {
	return int64(len(e.key) + cap(e.value) + entryOverhead)
}

// exactCopy allocates value's exact size (append's size-class rounding
// would otherwise make cap — and therefore the accounted bytes — slightly
// workload-dependent).
func exactCopy(value []byte) []byte {
	out := make([]byte, len(value))
	copy(out, value)
	return out
}

// shard is one lock stripe: an independent map + LRU + byte budget. The pad
// keeps hot shard headers on separate cache lines.
type shard struct {
	// The shard lock is pure-compute territory: one goroutine blocking
	// inside it stalls every key that hashes here (lockscope-enforced).
	//
	//genie:nonblocking
	mu         sync.Mutex
	items      map[string]*entry
	lru        *list.List // front = most recently used
	capacity   int64      // bytes; 0 = unbounded
	used       int64
	stats      Stats
	writeCount int // paces the amortized expiry sweep
	_          [32]byte
}

// Store is the in-process cache server. It is safe for concurrent use:
// operations lock only the shard owning their key.
type Store struct {
	shards []shard
	mask   uint32
	casSeq atomic.Uint64 // global so CAS tokens stay unique across shards
	now    func() time.Time
}

// Option configures a Store.
type Option func(*storeConfig)

type storeConfig struct {
	now    func() time.Time
	shards int
}

// WithClock injects a time source (tests).
func WithClock(now func() time.Time) Option {
	return func(c *storeConfig) { c.now = now }
}

// WithShards overrides the lock-stripe count (rounded up to a power of
// two). n <= 0 keeps the DefaultShards auto-sizing, matching the CLI
// flags' "0 = auto" semantics so callers can pass a knob through
// unconditionally. Shards=1 is the pre-striping store: one mutex, one
// LRU.
func WithShards(n int) Option {
	return func(c *storeConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// DefaultShards is the stripe count New picks when WithShards is not given:
// the next power of two >= 4x GOMAXPROCS, so that even with every core in
// the store the probability of two operations colliding on a stripe stays
// low, and never below 4.
func DefaultShards() int {
	return nextPow2(4 * runtime.GOMAXPROCS(0))
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// minShardBytes is the smallest per-shard byte budget worth striping down
// to: a few entries' worth. Without the floor, a core-rich host (large
// DefaultShards) would split a small capacity into slices below a single
// entry's size, making every entry instantly evict itself.
const minShardBytes = 2048

// New creates a store with the given byte capacity (0 = unbounded). The
// capacity splits evenly across shards, the way memcached slabs split
// across its lock stripes; the stripe count is capped so each shard keeps
// at least minShardBytes of budget.
func New(capacityBytes int64, opts ...Option) *Store {
	cfg := storeConfig{now: time.Now, shards: DefaultShards()}
	for _, o := range opts {
		o(&cfg)
	}
	n := nextPow2(cfg.shards)
	if capacityBytes > 0 {
		for n > 1 && capacityBytes/int64(n) < minShardBytes {
			n >>= 1
		}
	}
	s := &Store{
		shards: make([]shard, n),
		mask:   uint32(n - 1),
		now:    cfg.now,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.items = make(map[string]*entry)
		sh.lru = list.New()
		if capacityBytes > 0 {
			// Distribute the budget with the remainder spread over the first
			// shards so the per-shard sum is exactly the requested total.
			sh.capacity = capacityBytes / int64(n)
			if int64(i) < capacityBytes%int64(n) {
				sh.capacity++
			}
		}
	}
	return s
}

var _ Cache = (*Store)(nil)

// NumShards reports the lock-stripe count.
func (s *Store) NumShards() int { return len(s.shards) }

// keyBytes is the store's key type: a string from the library API, or a
// []byte pointing into the cacheproto server's read buffer, where converting
// each parsed key to a string would allocate on every request. Go methods
// cannot take type parameters, so each exported operation and its …B twin
// are one-line wrappers over the same generic helper: one implementation,
// one shard placement. A []byte key looks entries up through the compiler's
// no-copy map index; only a first-time insert copies it.
type keyBytes interface{ ~string | ~[]byte }

// fnv1a32 hashes key bytes without allocating.
func fnv1a32[K keyBytes](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// shardIndex is the stripe owning key.
func shardIndex[K keyBytes](s *Store, key K) int { return int(fnv1a32(key) & s.mask) }

func shardFor[K keyBytes](s *Store, key K) *shard { return &s.shards[shardIndex(s, key)] }

// ---------- per-shard internals (caller holds sh.mu) ----------

// expiredLocked reports and reaps an expired entry.
func (s *Store) expiredLocked(sh *shard, e *entry) bool {
	if e.expires == 0 || s.now().UnixNano() < e.expires {
		return false
	}
	removeLocked(sh, e)
	sh.stats.Expired++
	return true
}

func removeLocked(sh *shard, e *entry) {
	delete(sh.items, e.key)
	sh.lru.Remove(e.lruEl)
	sh.used -= e.size()
}

// get is the shared lookup; bump controls LRU promotion. The paper notes
// that trigger touches bump keys even though the application is not "using"
// them, and suggests a modified LRU; GetQuiet exposes that policy.
func get[K keyBytes](s *Store, sh *shard, key K, bump bool) (*entry, bool) {
	e, ok := sh.items[string(key)]
	if !ok {
		sh.stats.Misses++
		return nil, false
	}
	if s.expiredLocked(sh, e) {
		sh.stats.Misses++
		return nil, false
	}
	if bump {
		sh.lru.MoveToFront(e.lruEl)
	}
	sh.stats.Hits++
	return e, true
}

func (s *Store) ttlToExpiry(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return s.now().Add(ttl).UnixNano()
}

// overwriteValue copies value into dst's backing array when it is a
// reasonable fit, and allocates a fresh exact-size buffer when dst's
// capacity is far larger than needed: buffer reuse must not pin an entry's
// historical peak size against a budget that only accounts its current
// length.
func overwriteValue(dst, value []byte) []byte {
	if cap(dst) >= len(value) && cap(dst) <= 4*len(value)+64 {
		return append(dst[:0], value...)
	}
	return append(make([]byte, 0, len(value)), value...)
}

// setLocked writes key=value, creating or replacing, and evicts to fit. An
// existing entry's value buffer is reused when it has (reasonable)
// capacity, so steady overwrite traffic does not allocate.
func setLocked[K keyBytes](s *Store, sh *shard, key K, value []byte, ttl time.Duration) {
	seq := s.casSeq.Add(1)
	if e, ok := sh.items[string(key)]; ok {
		sh.used -= e.size()
		e.value = overwriteValue(e.value, value)
		e.casID = seq
		e.expires = s.ttlToExpiry(ttl)
		sh.used += e.size()
		sh.lru.MoveToFront(e.lruEl)
	} else {
		e := &entry{
			key:     string(key),
			value:   exactCopy(value),
			casID:   seq,
			expires: s.ttlToExpiry(ttl),
		}
		e.lruEl = sh.lru.PushFront(e)
		sh.items[e.key] = e
		sh.used += e.size()
	}
	sh.stats.Sets++
	s.afterWriteLocked(sh)
}

// afterWriteLocked runs the post-write maintenance: the paced expiry sweep,
// then eviction back under the shard's budget.
func (s *Store) afterWriteLocked(sh *shard) {
	sh.writeCount++
	if sh.writeCount >= sweepEveryWrites {
		sh.writeCount = 0
		s.sweepLocked(sh, sweepScanEntries)
	}
	s.evictLocked(sh)
}

// sweepLocked walks up to maxScan entries from the LRU tail and reaps the
// expired ones. Cold entries sink to the tail, so on TTL-heavy workloads
// this is exactly where dead entries accumulate; the walk is bounded so the
// cost stays amortized-constant per write.
func (s *Store) sweepLocked(sh *shard, maxScan int) {
	nowNano := s.now().UnixNano()
	el := sh.lru.Back()
	for i := 0; i < maxScan && el != nil; i++ {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.expires != 0 && nowNano >= e.expires {
			removeLocked(sh, e)
			sh.stats.Expired++
		}
		el = prev
	}
}

// evictLocked drops LRU-tail entries until the shard fits its budget. A tail
// entry that is already past its TTL counts as expired, not evicted — it was
// dead weight, not live data squeezed out.
func (s *Store) evictLocked(sh *shard) {
	if sh.capacity <= 0 {
		return
	}
	nowNano := s.now().UnixNano()
	for sh.used > sh.capacity {
		back := sh.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		removeLocked(sh, e)
		if e.expires != 0 && nowNano >= e.expires {
			sh.stats.Expired++
		} else {
			sh.stats.Evictions++
		}
	}
}

func addLocked[K keyBytes](s *Store, sh *shard, key K, value []byte, ttl time.Duration) bool {
	if e, ok := sh.items[string(key)]; ok && !s.expiredLocked(sh, e) {
		return false
	}
	setLocked(s, sh, key, value, ttl)
	return true
}

func casLocked[K keyBytes](s *Store, sh *shard, key K, value []byte, ttl time.Duration, token uint64) CasResult {
	e, ok := sh.items[string(key)]
	if !ok || s.expiredLocked(sh, e) {
		return CasNotFound
	}
	if e.casID != token {
		sh.stats.CasConflicts++
		return CasConflict
	}
	setLocked(s, sh, key, value, ttl)
	return CasStored
}

func deleteLocked[K keyBytes](s *Store, sh *shard, key K) bool {
	e, ok := sh.items[string(key)]
	if !ok {
		return false
	}
	expired := s.expiredLocked(sh, e)
	if !expired {
		removeLocked(sh, e)
	}
	sh.stats.Deletes++
	return !expired
}

func incrLocked[K keyBytes](s *Store, sh *shard, key K, delta int64) (int64, bool) {
	e, ok := get(s, sh, key, true)
	if !ok {
		return 0, false
	}
	n, ok := parseDecimal(e.value)
	if !ok {
		return 0, false
	}
	n += delta
	sh.used -= e.size()
	e.value = appendDecimal(e.value[:0], n)
	e.casID = s.casSeq.Add(1)
	sh.used += e.size()
	return n, true
}

// ---------- the operations: each locks its key's shard ----------

// getsAppend appends key's value to dst, returning the extended slice, the
// entry's CAS token, and whether it was live. The only allocation is dst
// growth: a nil dst is a fresh copy, a reused one amortizes to nothing.
func getsAppend[K keyBytes](s *Store, dst []byte, key K, bump bool) ([]byte, uint64, bool) {
	sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := get(s, sh, key, bump)
	if !ok {
		return dst, 0, false
	}
	return append(dst, e.value...), e.casID, true
}

func set[K keyBytes](s *Store, key K, value []byte, ttl time.Duration) {
	sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	setLocked(s, sh, key, value, ttl)
}

func add[K keyBytes](s *Store, key K, value []byte, ttl time.Duration) bool {
	sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return addLocked(s, sh, key, value, ttl)
}

func cas[K keyBytes](s *Store, key K, value []byte, ttl time.Duration, token uint64) CasResult {
	sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return casLocked(s, sh, key, value, ttl, token)
}

func del[K keyBytes](s *Store, key K) bool {
	sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return deleteLocked(s, sh, key)
}

func incr[K keyBytes](s *Store, key K, delta int64) (int64, bool) {
	sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return incrLocked(s, sh, key, delta)
}

// Get implements Cache.
func (s *Store) Get(key string) ([]byte, bool) {
	v, _, ok := getsAppend(s, nil, key, true)
	return v, ok
}

// GetQuiet is Get without the LRU bump (modified-LRU policy for trigger
// touches).
func (s *Store) GetQuiet(key string) ([]byte, bool) {
	v, _, ok := getsAppend(s, nil, key, false)
	return v, ok
}

// Gets implements Cache.
func (s *Store) Gets(key string) ([]byte, uint64, bool) { return getsAppend(s, nil, key, true) }

// Set implements Cache.
func (s *Store) Set(key string, value []byte, ttl time.Duration) { set(s, key, value, ttl) }

// Add implements Cache.
func (s *Store) Add(key string, value []byte, ttl time.Duration) bool {
	return add(s, key, value, ttl)
}

// Cas implements Cache.
func (s *Store) Cas(key string, value []byte, ttl time.Duration, token uint64) CasResult {
	return cas(s, key, value, ttl, token)
}

// Delete implements Cache.
func (s *Store) Delete(key string) bool { return del(s, key) }

// Incr implements Cache.
func (s *Store) Incr(key string, delta int64) (int64, bool) { return incr(s, key, delta) }

// The …B twins take a []byte key: the cacheproto server's request path
// stays allocation-free, its reads appending into a caller-owned buffer.

// GetsAppendB is Gets for a []byte key, appending the value to dst.
func (s *Store) GetsAppendB(dst, key []byte) ([]byte, uint64, bool) {
	return getsAppend(s, dst, key, true)
}

// SetB is Set for a []byte key.
func (s *Store) SetB(key, value []byte, ttl time.Duration) { set(s, key, value, ttl) }

// AddB is Add for a []byte key.
func (s *Store) AddB(key, value []byte, ttl time.Duration) bool { return add(s, key, value, ttl) }

// CasB is Cas for a []byte key.
func (s *Store) CasB(key, value []byte, ttl time.Duration, token uint64) CasResult {
	return cas(s, key, value, ttl, token)
}

// DeleteB is Delete for a []byte key.
func (s *Store) DeleteB(key []byte) bool { return del(s, key) }

// IncrB is Incr for a []byte key.
func (s *Store) IncrB(key []byte, delta int64) (int64, bool) { return incr(s, key, delta) }

// FlushAll implements Cache. Shards flush one at a time; concurrent writers
// may land in an already-flushed shard, as with memcached's flush_all.
func (s *Store) FlushAll() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.items = make(map[string]*entry)
		sh.lru.Init()
		sh.used = 0
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of counters and occupancy aggregated across
// shards. Each shard is snapshotted under its own lock; the aggregate is not
// a single atomic cut across shards (neither were memcached's stats).
func (s *Store) Stats() Stats {
	var agg Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.stats
		st.Items = int64(len(sh.items))
		st.BytesUsed = sh.used
		st.BytesLimit = sh.capacity
		sh.mu.Unlock()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Sets += st.Sets
		agg.Deletes += st.Deletes
		agg.Evictions += st.Evictions
		agg.Expired += st.Expired
		agg.CasConflicts += st.CasConflicts
		agg.Items += st.Items
		agg.BytesUsed += st.BytesUsed
		agg.BytesLimit += st.BytesLimit
	}
	return agg
}

// ResetStats zeroes the cumulative counters.
func (s *Store) ResetStats() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Keys returns a snapshot of the live (unexpired) keys across all shards,
// in no particular order. Each shard is walked under its own lock, so the
// snapshot is per-shard consistent but not a single atomic cut — the same
// deal Stats makes. Cluster key handoff uses this to find the remapped
// share on a prior owner; expired entries are reaped, not listed, so
// handoff never migrates a dead entry.
func (s *Store) Keys() []string {
	out := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		nowNano := s.now().UnixNano()
		sh.mu.Lock()
		for k, e := range sh.items {
			if e.expires != 0 && nowNano >= e.expires {
				continue // lazily expired; the sweep or next touch reaps it
			}
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// Len reports the number of live items.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

func parseDecimal(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		n = n*10 + int64(b[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

func appendDecimal(dst []byte, n int64) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}
