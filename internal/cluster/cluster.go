// Package cluster spreads cache keys over multiple cache servers with
// consistent hashing, giving CacheGenie the paper's "single logical cache
// across many cache servers" property (§2, contrast with SI-cache whose
// per-server caches duplicate data and shrink effective capacity).
//
// Batched reads. A kvcache.BatchGet in Ring.ApplyBatch is routed as Get routes:
// to the key's owner at R = 1; at R > 1 to the first replica in preference
// order whose HealthReporter says it is worth dialing. It differs from Get in
// one respect: what that replica answers is the answer. A batched miss does not
// fail over to the next replica, is not counted as a failover read and repairs
// nothing; the batch's caller (core's read waves) reloads the key from the
// database, and its repopulating Add fans out to the whole replica set. Trying
// the other replicas would cost the batch a second round of exchanges to paper
// over a divergence the next write heals anyway.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/kvcache"
)

// virtualNodes is how many ring positions each server occupies; more
// positions smooth the key distribution.
const virtualNodes = 128

// HealthReporter is implemented by cache nodes that know whether they are
// worth talking to right now. cacheproto.Pool reports its circuit-breaker
// state through it; in-process stores don't implement it and are treated as
// always healthy. The ring consults it before dialing: a read skips an
// open-breaker replica without paying even the fail-fast round trip, and a
// failover hit repopulates the preferred replica once it is healthy again.
type HealthReporter interface {
	Healthy() bool
}

// nodeHealthy treats nodes without a HealthReporter as healthy.
func nodeHealthy(c kvcache.Cache) bool {
	if hr, ok := c.(HealthReporter); ok {
		return hr.Healthy()
	}
	return true
}

// Option configures a Ring or Manager.
type Option func(*ringConfig)

type ringConfig struct {
	replicas      int
	handoffWarmup bool
}

func defaultRingConfig() ringConfig {
	return ringConfig{replicas: 1, handoffWarmup: true}
}

// WithReplicas sets the replication factor R: every key lives on the first R
// distinct nodes walking the ring from its hash position. Writes, deletes,
// increments and batch sub-ops fan out to all R replicas in parallel; reads
// try the replicas in preference order, skipping nodes whose HealthReporter
// says their breaker is open, and repopulate the preferred replica after a
// failover hit. R <= 0 or 1 keeps the single-owner routing every experiment
// before 10 ran; R larger than the node count is clamped to it.
func WithReplicas(r int) Option {
	return func(c *ringConfig) {
		if r > 1 {
			c.replicas = r
		}
	}
}

// WithHandoffWarmup controls whether Manager's membership-change key handoff
// copies a remapped key to its new owners before deleting it from the prior
// one (default true). Disabling it keeps the drain-and-delete consistency
// fix but lets the new owners start cold.
func WithHandoffWarmup(on bool) Option {
	return func(c *ringConfig) { c.handoffWarmup = on }
}

// ReplicaStats counts replica-set routing activity. The counters live with
// the Manager (or the Ring it was built from) and survive membership-change
// ring rebuilds.
type ReplicaStats struct {
	// FailoverReads are reads served by a non-preferred replica (the
	// preferred one was skipped as unhealthy or missed).
	FailoverReads int64
	// ReadRepairs are failover hits copied back onto the preferred replica.
	ReadRepairs int64
	// SkippedUnhealthy counts replicas passed over because their breaker was
	// open: by a Get walking the replica set, and by every other op — per-op
	// or one op of a batch — choosing the first healthy replica, whose answer
	// it reports. A write still reaches the replicas it passed over.
	SkippedUnhealthy int64
}

// replicaCounters is the shared atomic backing for ReplicaStats.
type replicaCounters struct {
	failover atomic.Int64
	repairs  atomic.Int64
	skipped  atomic.Int64
}

func (c *replicaCounters) snapshot() ReplicaStats {
	return ReplicaStats{
		FailoverReads:    c.failover.Load(),
		ReadRepairs:      c.repairs.Load(),
		SkippedUnhealthy: c.skipped.Load(),
	}
}

// Ring is a consistent-hash ring of caches. It implements kvcache.Cache, so
// the rest of the system cannot tell one server from many. Ring is immutable
// after construction; Manager rebuilds one to change membership.
//
// Every node has a stable string identity, and vnode positions hash from
// that identity — never from the node's index. That is what makes membership
// change cheap: a node's positions depend only on its own id, so removing
// one node deletes only its vnodes and only its ~1/N share of keys remaps.
// (The original index-based scheme hashed "node-<i>-vn-<v>": removing node k
// renumbered every successor, remapping keys on nodes that never moved.)
type Ring struct {
	ids    []string
	nodes  []kvcache.Cache
	hashes []uint64 // sorted ring positions
	owner  []int    // owner[i] = node index for hashes[i]
	// replicas is the effective replication factor R, clamped to [1, N].
	// With replicas == 1 every operation routes exactly as it did before
	// replica sets existed.
	replicas int
	counters *replicaCounters
}

var _ kvcache.Cache = (*Ring)(nil)

// NewRing builds a ring over the given caches (at least one), assigning the
// default identities "node-0".."node-N-1" in order. Fine for a fixed
// membership; callers that will add or remove nodes should use NewRingIDs
// (or Manager) with identities that survive renumbering — a server address,
// for instance.
func NewRing(nodes []kvcache.Cache, opts ...Option) (*Ring, error) {
	ids := make([]string, len(nodes))
	for i := range nodes {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	return NewRingIDs(ids, nodes, opts...)
}

// NewRingIDs builds a ring over the given caches with explicit stable node
// identities. ids and nodes correspond by index; ids must be unique and
// non-empty. WithReplicas turns the single-owner ring into one of replica
// sets.
func NewRingIDs(ids []string, nodes []kvcache.Cache, opts ...Option) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if len(ids) != len(nodes) {
		return nil, fmt.Errorf("cluster: %d ids for %d nodes", len(ids), len(nodes))
	}
	seen := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		seen[id] = struct{}{}
	}
	cfg := defaultRingConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.replicas > len(nodes) {
		cfg.replicas = len(nodes)
	}
	r := &Ring{ids: ids, nodes: nodes, replicas: cfg.replicas, counters: &replicaCounters{}}
	for ni, id := range ids {
		for v := 0; v < virtualNodes; v++ {
			h := hash64(fmt.Sprintf("%s-vn-%d", id, v))
			r.hashes = append(r.hashes, h)
			r.owner = append(r.owner, ni)
		}
	}
	// Sort positions and owners together.
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.hashes[idx[a]] < r.hashes[idx[b]] })
	hashes := make([]uint64, len(idx))
	owner := make([]int, len(idx))
	for i, j := range idx {
		hashes[i] = r.hashes[j]
		owner[i] = r.owner[j]
	}
	r.hashes, r.owner = hashes, owner
	return r, nil
}

// hash64 is FNV-1a with a murmur3-style finalizer; bare FNV clusters badly
// on sequential keys ("key-1", "key-2", ...), which is exactly what cache
// keys look like.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// placeHash hashes a key's placement, the one thing routing looks at: the
// text between the key's first '{' and the next '}' when that text is
// non-empty, and the whole key otherwise (Redis Cluster's hash tags). Keys
// that share a tag share a replica set, so a batch of them is one exchange.
func placeHash(key string) uint64 {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if j := strings.IndexByte(key[i+1:], '}'); j > 0 {
			return hash64(key[i+1 : i+1+j])
		}
	}
	return hash64(key)
}

// NodeFor returns the index of the node owning key — with replication, the
// key's preferred replica (ReplicasFor(key)[0]).
func (r *Ring) NodeFor(key string) int {
	h := placeHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[i]
}

func (r *Ring) pick(key string) kvcache.Cache { return r.nodes[r.NodeFor(key)] }

// Replicas reports the effective replication factor R (clamped to the node
// count).
func (r *Ring) Replicas() int { return r.replicas }

// ReplicasFor returns the key's replica set: the indices of the first R
// *distinct* nodes met walking the ring clockwise from the key's placement
// hash, preference order first. Consecutive vnodes of the same node
// collapse, so the set never contains duplicates even when one node's
// vnodes cluster. ReplicasFor(key)[0] == NodeFor(key) always.
func (r *Ring) ReplicasFor(key string) []int {
	return r.replicasAppend(key, make([]int, 0, r.replicas))
}

// replicasAppend is ReplicasFor into a caller-owned buffer (hot paths reuse
// one across a batch).
func (r *Ring) replicasAppend(key string, out []int) []int {
	h := placeHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	for n := 0; n < len(r.hashes) && len(out) < r.replicas; n++ {
		cand := r.owner[(i+n)%len(r.hashes)]
		dup := false
		for _, have := range out {
			if have == cand {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cand)
		}
	}
	return out
}

// ReplicaStats snapshots the replica routing counters.
func (r *Ring) ReplicaStats() ReplicaStats { return r.counters.snapshot() }

// getReplicated is the R > 1 read path: try replicas in preference order,
// skipping open-breaker nodes before dialing; a hit on a non-preferred
// replica counts as a failover read and is copied back onto the preferred
// replica (read-repair) when that one is healthy. The repair uses Add, not
// Set: if a trigger write beat the repair to the preferred replica, its
// fresher value wins. The repaired entry carries no TTL (the origin TTL is
// not recoverable from a get) — trigger invalidations still reach it, since
// deletes fan out to the whole replica set.
func (r *Ring) getReplicated(key string) ([]byte, bool) {
	var reps [maxStackReplicas]int
	set := r.replicasAppend(key, reps[:0])
	skipped := 0
	for pos, ni := range set {
		node := r.nodes[ni]
		if !nodeHealthy(node) {
			skipped++
			continue
		}
		v, ok := node.Get(key)
		if !ok {
			continue
		}
		if pos > 0 {
			r.counters.failover.Add(1)
			if pref := r.nodes[set[0]]; nodeHealthy(pref) {
				if pref.Add(key, v, 0) {
					r.counters.repairs.Add(1)
				}
			}
		}
		if skipped > 0 {
			r.counters.skipped.Add(int64(skipped))
		}
		return v, true
	}
	if skipped > 0 {
		r.counters.skipped.Add(int64(skipped))
	}
	return nil, false
}

// maxStackReplicas bounds the stack-allocated replica-set buffer; rings
// with more replicas than this spill to the heap per op, which is fine —
// nobody runs R > 8.
const maxStackReplicas = 8

// NumNodes reports ring membership size.
func (r *Ring) NumNodes() int { return len(r.nodes) }

// NodeID returns the stable identity of the node at index i.
func (r *Ring) NodeID(i int) string { return r.ids[i] }

// NodeIDs returns the stable identities in node-index order.
func (r *Ring) NodeIDs() []string { return append([]string(nil), r.ids...) }

// OwnerID returns the stable identity of the node owning key.
func (r *Ring) OwnerID(key string) string { return r.ids[r.NodeFor(key)] }

// Get implements kvcache.Cache. With replication it tries the key's
// replicas in preference order (skipping open breakers) and read-repairs
// the preferred replica after a failover hit.
func (r *Ring) Get(key string) ([]byte, bool) {
	if r.replicas == 1 {
		return r.pick(key).Get(key)
	}
	return r.getReplicated(key)
}

// one runs op at R > 1 as a one-op batch, so a per-op write follows the
// same replica policy as a batched one (applyBatchReplicated).
func (r *Ring) one(op kvcache.BatchOp) kvcache.BatchResult {
	return r.applyBatchReplicated([]kvcache.BatchOp{op})[0]
}

// Gets implements kvcache.Cache. A CAS token is only meaningful against the
// node that issued it, so with replication Gets reads the first healthy
// replica only and does not fail over on a miss; the matching Cas goes to
// the same node as long as health holds. If health flips between the two,
// the Cas lands on a node that never issued the token and reports
// CasConflict, or CasNotFound when that node lacks the key.
func (r *Ring) Gets(key string) ([]byte, uint64, bool) {
	if r.replicas == 1 {
		return r.pick(key).Gets(key)
	}
	res := r.one(kvcache.BatchOp{Kind: kvcache.BatchGets, Key: key})
	return res.Data, res.Cas, res.Found
}

// Set implements kvcache.Cache; with replication it fans out to all R
// replicas in parallel.
func (r *Ring) Set(key string, value []byte, ttl time.Duration) {
	if r.replicas == 1 {
		r.pick(key).Set(key, value, ttl)
		return
	}
	r.one(kvcache.BatchOp{Kind: kvcache.BatchSet, Key: key, Value: value, TTL: ttl})
}

// Add implements kvcache.Cache; with replication it fans out to all R
// replicas and reports the first healthy replica's outcome (replicas that
// already held the key keep their value — the divergence, if any, heals
// through reads preferring the same replica order and through the next
// fan-out write).
func (r *Ring) Add(key string, value []byte, ttl time.Duration) bool {
	if r.replicas == 1 {
		return r.pick(key).Add(key, value, ttl)
	}
	return r.one(kvcache.BatchOp{Kind: kvcache.BatchAdd, Key: key, Value: value, TTL: ttl}).Found
}

// Cas implements kvcache.Cache. With replication the compare-and-swap runs
// against the first healthy replica only — the one Gets handed out the token
// for — and a stored value propagates to the other replicas as plain sets
// (their tokens are from a different sequence). A concurrent Cas on the same
// key therefore serializes on that replica, which makes ring CAS
// linearizable per key while health is stable.
func (r *Ring) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	if r.replicas == 1 {
		return r.pick(key).Cas(key, value, ttl, cas)
	}
	return r.one(kvcache.BatchOp{Kind: kvcache.BatchCas, Key: key, Value: value, TTL: ttl, Cas: cas}).CasResult
}

// Delete implements kvcache.Cache; with replication the delete fans out to
// every replica (trigger invalidations must not leave a stale copy behind)
// and reports whether any replica held the key.
func (r *Ring) Delete(key string) bool {
	if r.replicas == 1 {
		return r.pick(key).Delete(key)
	}
	return r.one(kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: key}).Found
}

// Incr implements kvcache.Cache; with replication the increment fans out to
// every replica and the first healthy replica's result is reported. A
// replica that lost the key (eviction, rejoined cold) misses its increment
// — the divergence window documented on the package; reads prefer the same
// replica the result came from.
func (r *Ring) Incr(key string, delta int64) (int64, bool) {
	if r.replicas == 1 {
		return r.pick(key).Incr(key, delta)
	}
	res := r.one(kvcache.BatchOp{Kind: kvcache.BatchIncr, Key: key, Delta: delta})
	return res.Value, res.Found
}

// ApplyBatch implements kvcache.Cache: one logical batch fans out as
// one sub-batch per owning node, preserving the batch's relative op order
// within each node and reassembling results in input order. The sub-batches
// run concurrently, so a batch that spans the ring costs the slowest node's
// round trip rather than the sum of all of them — with remote nodes this is
// what keeps invalidation-bus and write-set flush latency flat as the ring
// grows, and what makes a read wave one exchange deep however many nodes its
// keys land on.
func (r *Ring) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	if len(ops) == 0 {
		return nil
	}
	if r.replicas > 1 {
		return r.applyBatchReplicated(ops)
	}
	// Fast path: a batch wholly owned by one node forwards as-is. Owners are
	// recorded only once a second node shows up; the partition shares their
	// allocation.
	first := r.NodeFor(ops[0].Key)
	var buf, nodeOf []int
	for i := 1; i < len(ops); i++ {
		n := r.NodeFor(ops[i].Key)
		if nodeOf == nil {
			if n == first {
				continue
			}
			buf = make([]int, 2*len(ops)+len(r.nodes)+1)
			nodeOf = buf[:len(ops)]
			for j := range i {
				nodeOf[j] = first
			}
		}
		nodeOf[i] = n
	}
	if nodeOf == nil {
		return r.nodes[first].ApplyBatch(ops)
	}
	out := make([]kvcache.BatchResult, len(ops))
	r.applySubBatches(ops, newPartition(len(r.nodes), nodeOf, nil, buf[len(ops):]), out, true)
	return out
}

// partition is a batch's ops grouped by node, without a map: node n's
// sub-batch is ops[idx[k]] for k in [start[n], start[n+1]), in batch order.
type partition struct {
	idx, start []int
}

// newPartition lays out the routing "op opOf[k] goes to node nodeOf[k]" (op k
// when opOf is nil), given in batch order, node by node — a counting sort, so
// each node's ops keep their batch order. The partition lives in buf, which
// needs room for len(nodeOf)+nodes+1 ints (a nil buf is allocated).
func newPartition(nodes int, nodeOf, opOf, buf []int) partition {
	if need := len(nodeOf) + nodes + 1; len(buf) < need {
		buf = make([]int, need)
	}
	p := partition{idx: buf[:len(nodeOf)], start: buf[len(nodeOf) : len(nodeOf)+nodes+1]}
	clear(p.start)
	for _, n := range nodeOf {
		p.start[n+1]++
	}
	for n := 1; n <= nodes; n++ {
		p.start[n] += p.start[n-1]
	}
	// start[n] is node n's fill cursor and ends up where node n+1 begins; the
	// shift after the fill puts every node's start back.
	for k, n := range nodeOf {
		i := k
		if opOf != nil {
			i = opOf[k]
		}
		p.idx[p.start[n]] = i
		p.start[n]++
	}
	for n := nodes; n > 0; n-- {
		p.start[n] = p.start[n-1]
	}
	p.start[0] = 0
	return p
}

// applySubBatches sends every node its sub-batch of p, all nodes concurrently
// (the last one on the calling goroutine). The result of the op at position k
// of p.idx lands in out[p.idx[k]] when scatter is set — each op is in one
// sub-batch — and in out[k] otherwise; a nil out drops the results.
func (r *Ring) applySubBatches(ops []kvcache.BatchOp, p partition, out []kvcache.BatchResult, scatter bool) {
	f := &fanout{r: r, p: p, out: out, scatter: scatter, sub: make([]kvcache.BatchOp, len(p.idx))}
	for k, i := range p.idx {
		f.sub[k] = ops[i]
	}
	last := -1
	for n := range r.nodes {
		if p.start[n] == p.start[n+1] {
			continue
		}
		if last >= 0 {
			f.wg.Add(1)
			go f.applyAsync(last)
		}
		last = n
	}
	if last >= 0 {
		f.apply(last)
	}
	f.wg.Wait()
}

// fanout is one applySubBatches call, shared with the goroutines it starts.
type fanout struct {
	wg      sync.WaitGroup
	r       *Ring
	p       partition
	sub     []kvcache.BatchOp // the ops, laid out as p.idx
	out     []kvcache.BatchResult
	scatter bool
}

func (f *fanout) applyAsync(n int) {
	defer f.wg.Done()
	f.apply(n)
}

// apply sends node n its sub-batch and stores the results.
func (f *fanout) apply(n int) {
	from, to := f.p.start[n], f.p.start[n+1]
	res := f.r.nodes[n].ApplyBatch(f.sub[from:to:to])
	if f.out == nil {
		return
	}
	// Nodes own disjoint ranges of p.idx, so the writes don't race.
	for k := from; k < to; k++ {
		if f.scatter {
			f.out[f.p.idx[k]] = res[k-from]
		} else {
			f.out[k] = res[k-from]
		}
	}
}

// applyBatchReplicated is the ring's one replica policy at R > 1: batches
// and, as one-op batches, the per-op writes and Gets. It fans each mutation
// out to its key's whole replica set: one sub-batch per node carrying every
// op whose replica set contains that node, applied concurrently (max-node
// cost, as in the single-owner path). An op's relative order is preserved
// inside every node's sub-batch, so per-key ordering — the invalidation bus's
// contract — holds on every replica. Each op reports the result from the
// first replica that was healthy when the batch was routed, counting the
// replicas it passed over in SkippedUnhealthy; a delete's result additionally
// ORs across replicas, so "found" means "some replica held it".
//
// Gets and cas ops go to that first healthy replica only: a token is only
// meaningful on the node that issued it. A stored cas then propagates to the
// key's other replicas as a plain set, in one more concurrent round.
//
// A get goes to the one replica Ring.Get would try first, the first healthy
// one, and what that replica answers is the answer: unlike Ring.Get, a
// batched miss does not fail over to the next replica and repairs nothing.
// The caller reloads from the database and its populate fans out to the
// whole replica set.
func (r *Ring) applyBatchReplicated(ops []kvcache.BatchOp) []kvcache.BatchResult {
	healthyNode := make([]bool, len(r.nodes))
	for i, n := range r.nodes {
		healthyNode[i] = nodeHealthy(n)
	}
	// The routing, in batch order: op opOf[k] goes to node nodeOf[k]. An op
	// goes to at most R nodes; the rest of the allocation holds the partition.
	most := len(ops) * r.replicas
	route := make([]int, 3*most+len(r.nodes)+1)
	nodeOf, opOf, parts := route[:0:most], route[most:most:2*most], route[2*most:]
	send := func(n, i int) {
		nodeOf, opOf = append(nodeOf, n), append(opOf, i)
	}
	decider := make([]int, len(ops))
	var buf [maxStackReplicas]int
	skipped := 0
	for i := range ops {
		set := r.replicasAppend(ops[i].Key, buf[:0])
		// The first healthy replica decides; with none healthy the preferred
		// one fails fast, which reads as a miss.
		pos := 0
		for pos < len(set) && !healthyNode[set[pos]] {
			pos++
		}
		skipped += pos
		decider[i] = set[pos%len(set)]
		switch ops[i].Kind {
		case kvcache.BatchGet, kvcache.BatchGets, kvcache.BatchCas:
			send(decider[i], i)
		default:
			for _, ni := range set {
				send(ni, i)
			}
		}
	}
	if skipped > 0 {
		r.counters.skipped.Add(int64(skipped))
	}
	p := newPartition(len(r.nodes), nodeOf, opOf, parts)
	results := make([]kvcache.BatchResult, len(p.idx))
	r.applySubBatches(ops, p, results, false)
	out := make([]kvcache.BatchResult, len(ops))
	for n := range r.nodes {
		for k := p.start[n]; k < p.start[n+1]; k++ {
			i, res := p.idx[k], results[k]
			if decider[i] == n {
				found := out[i].Found // a delete may already have OR-ed in
				out[i] = res
				if ops[i].Kind == kvcache.BatchDelete {
					out[i].Found = out[i].Found || found
				}
			} else if ops[i].Kind == kvcache.BatchDelete && res.Found {
				out[i].Found = true
			}
		}
	}
	var sets []kvcache.BatchOp
	nodeOf, opOf = nodeOf[:0], opOf[:0]
	for i := range ops {
		if ops[i].Kind != kvcache.BatchCas || !out[i].Found {
			continue
		}
		for _, ni := range r.replicasAppend(ops[i].Key, buf[:0]) {
			if ni != decider[i] {
				send(ni, len(sets))
			}
		}
		sets = append(sets, kvcache.BatchOp{Kind: kvcache.BatchSet, Key: ops[i].Key, Value: ops[i].Value, TTL: ops[i].TTL})
	}
	if len(nodeOf) > 0 {
		// p is done with, so the second partition may reuse its space.
		r.applySubBatches(sets, newPartition(len(r.nodes), nodeOf, opOf, parts), nil, false)
	}
	return out
}

// FlushAll implements kvcache.Cache; it flushes every node, concurrently for
// the same reason ApplyBatch fans out: max-node rather than sum-of-node cost.
func (r *Ring) FlushAll() {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		wg.Add(1)
		go func(n kvcache.Cache) {
			defer wg.Done()
			n.FlushAll()
		}(n)
	}
	wg.Wait()
}
