package cacheproto

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultL1TTL is the lease a near-cache entry lives under when PoolConfig
// enables the L1 without an explicit TTL. It matches the invalidation
// bus's default BatchWindow: an invalidation published elsewhere reaches
// this process within about one window, and an L1 entry that never sees it
// (another process's bus, a network partition) dies of lease expiry on the
// same clock — so L1 staleness is bounded by the same window async
// invalidation already imposes on the tier.
const DefaultL1TTL = time.Millisecond

// l1Stripes shards the near-cache map so a flash crowd's lookups don't
// serialize on one mutex. Power of two; the key hash picks the stripe.
const l1Stripes = 8

// L1Stats counts near-cache activity.
type L1Stats struct {
	Hits          int64 // lookups served locally, no network round trip
	Misses        int64 // lookups that fell through to the server
	Stores        int64 // entries written after a server hit or local write
	Evictions     int64 // entries dropped to stay within the size bound
	Invalidations int64 // entries dropped because a write or delete touched the key
	Expired       int64 // lookups that found an entry past its lease
	Items         int64 // entries currently resident
}

// add accumulates other into s (Stack-level aggregation across pools).
func (s *L1Stats) Add(o L1Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stores += o.Stores
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Expired += o.Expired
	s.Items += o.Items
}

type l1entry struct {
	val []byte
	// deadline is the lease expiry (UnixNano): a stale entry cannot be
	// served past it even if its invalidation never reached this client.
	deadline int64
	// epoch stamps which FlushAll generation the entry belongs to; a flush
	// bumps the cache epoch and orphans every older entry in O(1).
	epoch uint64
}

type l1stripe struct {
	mu sync.RWMutex
	m  map[string]l1entry
}

// l1cache is the per-client near-cache: a few thousand lease-stamped
// entries in front of one node's connection pool. Entries are stored only
// from server responses or this client's own writes, invalidated by every
// write-shaped operation that passes through the pool (which is how trigger
// maintenance reaches it — write-set flushes ride the same pool),
// and lease-bounded so an invalidation this client never saw still cannot
// produce a read staler than the TTL.
type l1cache struct {
	ttl      time.Duration
	capacity int // total entries across stripes
	epoch    atomic.Uint64

	stripes [l1Stripes]l1stripe

	hits          atomic.Int64
	misses        atomic.Int64
	stores        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	expired       atomic.Int64
}

func newL1(entries int, ttl time.Duration) *l1cache {
	if ttl <= 0 {
		ttl = DefaultL1TTL
	}
	l := &l1cache{ttl: ttl, capacity: entries}
	for i := range l.stripes {
		l.stripes[i].m = make(map[string]l1entry, entries/l1Stripes+1)
	}
	return l
}

// l1hash mixes a key into a stripe index: FNV-1a, good enough for eight
// stripes and free of the full finalizer.
//
//genie:hotpath
func l1hash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// lookup returns the entry for key if it is lease-live and epoch-current.
// The returned slice is the stored one — callers must treat it as
// read-only, which every caller of kvcache.Cache.Get already does.
//
//genie:hotpath
func (l *l1cache) lookup(key string, now int64) ([]byte, bool) {
	s := &l.stripes[l1hash(key)&(l1Stripes-1)]
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		l.misses.Add(1)
		return nil, false
	}
	if e.epoch != l.epoch.Load() || now >= e.deadline {
		l.expired.Add(1)
		l.misses.Add(1)
		return nil, false
	}
	l.hits.Add(1)
	return e.val, true
}

// store inserts a fresh entry under a new lease, evicting arbitrary
// entries from the stripe when the cache is over budget (the map's
// iteration order is effectively random, which for a near-cache whose
// whole population re-earns its place every lease is as good as LRU).
func (l *l1cache) store(key string, val []byte, now int64) {
	s := &l.stripes[l1hash(key)&(l1Stripes-1)]
	perStripe := l.capacity / l1Stripes
	if perStripe < 1 {
		perStripe = 1
	}
	s.mu.Lock()
	if _, exists := s.m[key]; !exists && len(s.m) >= perStripe {
		evict := len(s.m) - perStripe + 1
		for k := range s.m {
			delete(s.m, k)
			l.evictions.Add(1)
			evict--
			if evict <= 0 {
				break
			}
		}
	}
	s.m[key] = l1entry{val: val, deadline: now + l.ttl.Nanoseconds(), epoch: l.epoch.Load()}
	s.mu.Unlock()
	l.stores.Add(1)
}

// invalidate drops key; every write-shaped pool operation calls it, which
// is how a write-set flush — a statement's or a bus window's — reaches the
// near-cache.
func (l *l1cache) invalidate(key string) {
	s := &l.stripes[l1hash(key)&(l1Stripes-1)]
	s.mu.Lock()
	_, ok := s.m[key]
	if ok {
		delete(s.m, key)
	}
	s.mu.Unlock()
	if ok {
		l.invalidations.Add(1)
	}
}

// flush orphans every entry by bumping the epoch (O(1)); the orphans are
// overwritten or evicted as traffic returns.
func (l *l1cache) flush() {
	l.epoch.Add(1)
}

func (l *l1cache) stats() L1Stats {
	var items int64
	for i := range l.stripes {
		l.stripes[i].mu.RLock()
		items += int64(len(l.stripes[i].m))
		l.stripes[i].mu.RUnlock()
	}
	return L1Stats{
		Hits:          l.hits.Load(),
		Misses:        l.misses.Load(),
		Stores:        l.stores.Load(),
		Evictions:     l.evictions.Load(),
		Invalidations: l.invalidations.Load(),
		Expired:       l.expired.Load(),
		Items:         items,
	}
}
