package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/kvcache"
)

// Manager is a consistent-hash ring with live membership. It implements
// kvcache.Cache exactly like Ring, but AddNode and RemoveNode change
// membership while traffic flows: each mutation rebuilds an immutable Ring
// under the write lock and swaps it in, and every operation routes through
// the ring current at its start.
//
// Because vnode positions hash from stable node identities (see Ring), a
// membership change of one node remaps only that node's ~1/N share of keys;
// every other key keeps its owner.
//
// Operations already in flight when membership changes may still reach the
// old owner; for a cache that is indistinguishable from a stale entry's
// normal miss-and-repopulate cycle.
//
// Pinned snapshots. Each Manager op method fetches the current ring once
// and routes the whole op through it, so a single Get or ApplyBatch can
// never be split across two memberships. A *sequence* of ops can: a
// Gets→Cas pair issued through the Manager re-fetches the ring per call, so
// a membership change between the two can route them to different nodes —
// the Cas then fails with NOT_FOUND (the new node has no such token) and
// the caller retries, which is safe but wasted work. Read-modify-write
// sequences that want one consistent routing should pin a snapshot with
// Ring() and issue both calls against it; the snapshot is immutable and
// remains valid (old-owner reads degrade to ordinary misses after a
// remap, never to wrong answers).
//
// Key handoff. A membership change leaves remapped keys' copies behind on
// their prior owners, where trigger invalidations — which route through the
// *new* ring — can no longer reach them; a later change remapping a key
// back would resurface a pre-change value. Two mechanisms close the hole.
// AddNode flushes the joining node before it enters the ring (pre-join
// contents are unreachable by trigger maintenance by construction, and the
// node receives no traffic yet, so the flush cannot catch a fresh write).
// Then each membership change runs a handoff pass after swapping rings:
// every reachable node that can enumerate its keys (in-process stores and
// cacheproto pools both can) is scanned, keys whose replica set grew are
// copied to the newly responsible nodes (warmup, always as add-if-absent
// so a racing fresh write wins; disable with WithHandoffWarmup(false)),
// keys a node no longer replicates are deleted from it, and debris owned
// under neither the old nor the live ring is dropped. The pass runs
// outside the membership lock, concurrently with traffic; a racing write
// can re-create a copy the drain just removed, which the next change's
// pass cleans again. Nodes that cannot be enumerated (dead, or no key
// listing) are skipped and counted in HandoffStats.
type Manager struct {
	// mu guards membership state; routing reads it per op, so nothing under
	// it may block (handoff I/O runs under handoffMu instead).
	//
	//genie:nonblocking
	mu    sync.RWMutex
	ring  *Ring
	ids   []string                 // membership in join order
	nodes map[string]kvcache.Cache // id → cache
	cfg   ringConfig

	// handoffMu serializes handoff passes: two concurrent membership
	// changes must not judge the same keys against different ring pairs —
	// an interleaved pass could copy a key to a node the *other* change
	// already routed it away from, creating exactly the orphan handoff
	// exists to remove. Each pass re-reads the current ring under this
	// lock, so the last pass always settles the tier against the final
	// membership.
	handoffMu sync.Mutex

	handoffDrained atomic.Int64
	handoffCopied  atomic.Int64
	handoffSkipped atomic.Int64
}

var _ kvcache.Cache = (*Manager)(nil)

// NewManager builds a mutable ring over the given caches with stable node
// identities (see NewRingIDs for the constraints). WithReplicas applies to
// every ring the manager builds; the effective R is re-clamped to the node
// count on each membership change.
func NewManager(ids []string, nodes []kvcache.Cache, opts ...Option) (*Manager, error) {
	cfg := defaultRingConfig()
	for _, o := range opts {
		o(&cfg)
	}
	ring, err := NewRingIDs(ids, nodes, opts...)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		ring:  ring,
		ids:   append([]string(nil), ids...),
		nodes: make(map[string]kvcache.Cache, len(ids)),
		cfg:   cfg,
	}
	for i, id := range ids {
		m.nodes[id] = nodes[i]
	}
	return m, nil
}

// Ring returns the current immutable ring snapshot. Routing decisions made
// against it stay internally consistent even if membership changes after —
// this is the pinning mechanism for read-modify-write sequences (see the
// type comment): issue the Gets and the Cas against one snapshot and they
// cannot straddle a membership change.
func (m *Manager) Ring() *Ring {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring
}

// NumNodes reports current membership size.
func (m *Manager) NumNodes() int { return m.Ring().NumNodes() }

// Replicas reports the current effective replication factor.
func (m *Manager) Replicas() int { return m.Ring().Replicas() }

// NodeIDs returns the current membership in join order.
func (m *Manager) NodeIDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.ids...)
}

// OwnerID returns the stable identity of the node currently owning key.
func (m *Manager) OwnerID(key string) string { return m.Ring().OwnerID(key) }

// Node returns the cache registered under id, if any.
func (m *Manager) Node(id string) (kvcache.Cache, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.nodes[id]
	return c, ok
}

// ReplicaStats snapshots the replica routing counters; they survive
// membership-change ring rebuilds.
func (m *Manager) ReplicaStats() ReplicaStats { return m.Ring().ReplicaStats() }

// HotKeyStats snapshots the hot-key counters; the sampler and rotation
// counters survive membership-change ring rebuilds.
func (m *Manager) HotKeyStats() HotKeyStats { return m.Ring().HotKeyStats() }

// HandoffStats counts membership-change key-handoff activity.
type HandoffStats struct {
	// Drained is how many keys handoff deleted from nodes that no longer
	// replicate them (including stale pre-leave leftovers on rejoiners).
	Drained int64
	// Copied is how many keys were copied to a newly responsible node
	// before the prior owner's copy was dropped (warmup).
	Copied int64
	// SkippedNodes counts nodes a handoff pass could not enumerate —
	// unreachable (dead at RemoveNode time, typically) or without key
	// listing support. Their keys stay behind; a TTL or the next
	// successful pass bounds the staleness.
	SkippedNodes int64
}

// HandoffStats returns cumulative handoff counters.
func (m *Manager) HandoffStats() HandoffStats {
	return HandoffStats{
		Drained:      m.handoffDrained.Load(),
		Copied:       m.handoffCopied.Load(),
		SkippedNodes: m.handoffSkipped.Load(),
	}
}

// AddNode joins a node to the ring under a stable identity. Only the ~1/N
// key share the new node's vnodes claim changes owner; the handoff pass
// then migrates that share (copy to the new owner, delete from the old) so
// no orphaned copies stay behind.
//
// The joining node is flushed before it enters the ring: anything it holds
// pre-join is unreachable by trigger maintenance by construction (no
// invalidation routes to a non-member), so a rejoiner's pre-outage copies
// would be resurfacing hazards, and the flush happens while the node still
// receives no traffic — no fresh write can be caught in it. Warm state
// comes from the handoff copies, not from whatever the node remembers.
func (m *Manager) AddNode(id string, c kvcache.Cache) error {
	if c == nil {
		return fmt.Errorf("cluster: nil cache for node %q", id)
	}
	c.FlushAll()
	m.mu.Lock()
	if _, dup := m.nodes[id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("cluster: node %q already in the ring", id)
	}
	ids := append(append([]string(nil), m.ids...), id)
	nodes := make([]kvcache.Cache, 0, len(ids))
	for _, existing := range m.ids {
		nodes = append(nodes, m.nodes[existing])
	}
	nodes = append(nodes, c)
	old := m.ring
	ring, err := m.rebuildLocked(ids, nodes)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.ids = ids
	m.nodes[id] = c
	m.ring = ring
	m.mu.Unlock()
	m.handoff(old, "", nil)
	return nil
}

// RemoveNode leaves id's node out of the ring; its ~1/N key share remaps to
// the survivors and every other key keeps its owner. The handoff pass then
// drains the leaver (when it is still reachable — a graceful leave), copying
// its share to the new owners and deleting it, so a later rejoin cannot
// resurface pre-leave values. The last node cannot be removed — a ring with
// no nodes cannot route.
func (m *Manager) RemoveNode(id string) error {
	m.mu.Lock()
	if _, ok := m.nodes[id]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("cluster: node %q not in the ring", id)
	}
	if len(m.ids) == 1 {
		m.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last node %q", id)
	}
	ids := make([]string, 0, len(m.ids)-1)
	nodes := make([]kvcache.Cache, 0, len(m.ids)-1)
	for _, existing := range m.ids {
		if existing == id {
			continue
		}
		ids = append(ids, existing)
		nodes = append(nodes, m.nodes[existing])
	}
	old := m.ring
	leaver := m.nodes[id]
	ring, err := m.rebuildLocked(ids, nodes)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.ids = ids
	delete(m.nodes, id)
	m.ring = ring
	m.mu.Unlock()
	m.handoff(old, id, leaver)
	return nil
}

// rebuildLocked builds a replacement ring carrying the manager's options
// and the existing replica/hot-key counters forward. Caller holds m.mu.
func (m *Manager) rebuildLocked(ids []string, nodes []kvcache.Cache) (*Ring, error) {
	ring, err := NewRingIDs(ids, nodes, WithReplicas(m.cfg.replicas))
	if err != nil {
		return nil, err
	}
	ring.counters = m.ring.counters
	ring.hot = m.ring.hot
	return ring, nil
}

// keyList enumerates a node's keys: in-process stores list directly,
// cacheproto pools over the wire; anything else is unenumerable.
func keyList(c kvcache.Cache) ([]string, bool) {
	switch n := c.(type) {
	case interface{ Keys() ([]string, error) }:
		keys, err := n.Keys()
		return keys, err == nil
	case interface{ Keys() []string }:
		return n.Keys(), true
	}
	return nil, false
}

// handoff migrates remapped key shares after a membership change (see the
// type comment). old is the pre-change ring snapshot; extra, when non-nil,
// is a node no longer in the ring (RemoveNode's leaver) that still needs
// draining. Passes serialize on handoffMu and judge placement against the
// ring current when the pass starts, so back-to-back membership changes
// settle against the final membership instead of racing each other.
func (m *Manager) handoff(old *Ring, extraID string, extra kvcache.Cache) {
	m.handoffMu.Lock()
	defer m.handoffMu.Unlock()
	next := m.Ring()
	type scanned struct {
		id   string
		node kvcache.Cache
		keys []string
	}
	var nodes []scanned
	for i, id := range next.ids {
		keys, ok := keyList(next.nodes[i])
		if !ok {
			m.handoffSkipped.Add(1)
			continue
		}
		nodes = append(nodes, scanned{id: id, node: next.nodes[i], keys: keys})
	}
	if extra != nil {
		rejoined := false
		for _, id := range next.ids {
			if id == extraID {
				rejoined = true // re-added before this pass ran; scanned above
				break
			}
		}
		if !rejoined {
			if keys, ok := keyList(extra); ok {
				nodes = append(nodes, scanned{id: extraID, node: extra, keys: keys})
			} else {
				m.handoffSkipped.Add(1)
			}
		}
	}

	scannedIDs := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		scannedIDs[n.id] = true
	}
	nextNode := make(map[string]kvcache.Cache, len(next.ids))
	for i, id := range next.ids {
		nextNode[id] = next.nodes[i]
	}
	replicaIDs := func(r *Ring, key string) []string {
		var buf [maxStackReplicas]int
		set := r.replicasAppend(key, buf[:0])
		out := make([]string, len(set))
		for i, ni := range set {
			out[i] = r.ids[ni]
		}
		return out
	}
	contains := func(ids []string, id string) bool {
		for _, have := range ids {
			if have == id {
				return true
			}
		}
		return false
	}

	// Phase 1 — drop stale leftovers: a key held by a node that replicates
	// it under NEITHER the old nor the live ring is debris from an earlier
	// membership, unreachable by invalidation; it goes before the copy
	// phase. A key the node holds and owns under the live ring but not the
	// old one is kept untouched: it can only be traffic that landed after
	// the ring swap (pre-join contents were flushed by AddNode), which is
	// fresher than anything this pass could copy — deleting it here would
	// turn the phase-2 copy into a stale resurrection. After this loop
	// n.keys holds only the keys the node held under the old ring, the
	// phase-2 copy-source candidates.
	for i := range nodes {
		n := &nodes[i]
		var stale, legit []string
		for _, k := range n.keys {
			switch {
			case contains(replicaIDs(old, k), n.id):
				legit = append(legit, k)
			case !contains(replicaIDs(next, k), n.id):
				stale = append(stale, k)
			}
		}
		if len(stale) > 0 {
			deleteKeys(n.node, stale)
			m.handoffDrained.Add(int64(len(stale)))
		}
		n.keys = legit
	}

	// Phase 2 — warm the newly responsible nodes: every key whose NEW
	// replica set gained members it did not have under the old ring gets
	// copied to them, by one designated holder — the most-preferred old
	// replica that the pass could enumerate (with replication a change can
	// grow a key's set without any holder losing it, e.g. a removed node's
	// share gaining a fresh second replica, so "the node losing the key
	// copies it" would miss exactly the replication repairs that matter).
	// Every copy rides as an Add, never a Set: a joining node was flushed
	// before entering the ring and phase 1 removed any other debris, so
	// the only value an Add can lose to is one a concurrent write landed
	// after the ring swap — which is fresher and must win. Copied entries
	// carry no TTL (not recoverable from a get); they stay maintained
	// because invalidations route to their new owners. Copies accumulate
	// per target and flush as pipelined batches, so a remote rejoin warmup
	// costs round trips per chunk, not per key.
	//
	// Phase 3 — drain: a key is deleted from every legitimate holder the
	// new ring no longer lists as a replica, closing the orphaned-copy
	// consistency hole documented on the type.
	copies := make(map[string][]kvcache.BatchOp)
	for i := range nodes {
		n := &nodes[i]
		var moved []string
		for _, k := range n.keys {
			oldSet := replicaIDs(old, k)
			newSet := replicaIDs(next, k)
			if m.cfg.handoffWarmup {
				designated := ""
				for _, id := range oldSet {
					if scannedIDs[id] {
						designated = id
						break
					}
				}
				if designated == n.id {
					var copied bool
					var v []byte
					for _, id := range newSet {
						if contains(oldSet, id) {
							continue // already held it; nothing to warm
						}
						if !copied {
							v, copied = n.node.Get(k)
							if !copied {
								break // evicted since the scan; nothing to copy
							}
						}
						copies[id] = append(copies[id], kvcache.BatchOp{Kind: kvcache.BatchAdd, Key: k, Value: v})
						m.handoffCopied.Add(1)
					}
				}
			}
			if !contains(newSet, n.id) {
				moved = append(moved, k)
			}
		}
		if len(moved) > 0 {
			deleteKeys(n.node, moved)
			m.handoffDrained.Add(int64(len(moved)))
		}
	}
	for id, ops := range copies {
		applyChunked(nextNode[id], ops)
	}
}

// handoffChunk bounds one pipelined handoff batch: big enough to amortize
// the round trip, small enough that a drain or warmup never pins one huge
// mop exchange (or its values) in memory.
const handoffChunk = 512

// applyChunked applies ops to one node in pipelined chunks, so a remote
// drain or warmup costs one round trip per chunk instead of one per key.
func applyChunked(c kvcache.Cache, ops []kvcache.BatchOp) {
	for len(ops) > 0 {
		n := len(ops)
		if n > handoffChunk {
			n = handoffChunk
		}
		c.ApplyBatch(ops[:n])
		ops = ops[n:]
	}
}

// deleteKeys removes keys from one node, batched via applyChunked.
func deleteKeys(c kvcache.Cache, keys []string) {
	ops := make([]kvcache.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k}
	}
	applyChunked(c, ops)
}

// Get implements kvcache.Cache.
func (m *Manager) Get(key string) ([]byte, bool) { return m.Ring().Get(key) }

// Gets implements kvcache.Cache. The token is only coherent with a Cas
// routed through the same membership; pin with Ring() when that matters
// (see the type comment).
func (m *Manager) Gets(key string) ([]byte, uint64, bool) { return m.Ring().Gets(key) }

// Set implements kvcache.Cache.
func (m *Manager) Set(key string, value []byte, ttl time.Duration) {
	m.Ring().Set(key, value, ttl)
}

// Add implements kvcache.Cache.
func (m *Manager) Add(key string, value []byte, ttl time.Duration) bool {
	return m.Ring().Add(key, value, ttl)
}

// Cas implements kvcache.Cache.
func (m *Manager) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	return m.Ring().Cas(key, value, ttl, cas)
}

// Delete implements kvcache.Cache.
func (m *Manager) Delete(key string) bool { return m.Ring().Delete(key) }

// Incr implements kvcache.Cache.
func (m *Manager) Incr(key string, delta int64) (int64, bool) { return m.Ring().Incr(key, delta) }

// FlushAll implements kvcache.Cache.
func (m *Manager) FlushAll() { m.Ring().FlushAll() }

// ApplyBatch implements kvcache.Cache: the whole batch routes through
// one ring snapshot, so a concurrent membership change cannot split it
// inconsistently.
func (m *Manager) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	return m.Ring().ApplyBatch(ops)
}
