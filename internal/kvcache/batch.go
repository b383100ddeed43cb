package kvcache

import "time"

// BatchOpKind discriminates the operations that can ride in a batch.
type BatchOpKind int

// Batchable operations. A compare-and-swap is read-dependent, so it spans two
// batches rather than one: a batch of BatchGets reads every value and token a
// caller is about to modify, and a second batch carries the BatchCas writes
// computed from them (core's statement write-set flushes exactly that pair).
// A BatchCas that reports CasConflict lost a race between the two batches;
// only that key needs a gets/cas retry of its own.
const (
	BatchDelete BatchOpKind = iota
	BatchSet
	BatchIncr
	// BatchAdd stores only if the key is absent, like Cache.Add. Cluster
	// key-handoff warmup rides on it: a batch of adds copies a remapped
	// share to its new owner without clobbering any fresher value a
	// concurrent write already landed there.
	BatchAdd
	// BatchGets reads the value and CAS token, like Cache.Gets; a cas of the
	// same key follows, so it always reads the node that will compare the
	// token.
	BatchGets
	// BatchCas stores only if the key's token still equals Cas, like
	// Cache.Cas.
	BatchCas
	// BatchGet reads the value alone, like Cache.Get. Nothing depends on where
	// it was read, so appliers treat it as Get: a near-cache may serve or learn
	// it, and a replicated ring reads the one replica Get would try first. On
	// the wire it is a gets whose token is dropped. core's read waves fetch a
	// page's independent lookups as one batch of these.
	BatchGet
)

// String implements fmt.Stringer.
func (k BatchOpKind) String() string {
	switch k {
	case BatchDelete:
		return "delete"
	case BatchSet:
		return "set"
	case BatchIncr:
		return "incr"
	case BatchAdd:
		return "add"
	case BatchGets:
		return "gets"
	case BatchCas:
		return "cas"
	case BatchGet:
		return "get"
	}
	return "unknown"
}

// BatchOp is one operation in a batch.
type BatchOp struct {
	Kind  BatchOpKind
	Key   string
	Value []byte        // BatchSet / BatchAdd / BatchCas payload
	TTL   time.Duration // BatchSet / BatchAdd / BatchCas entry lifetime (0 = no expiry)
	Delta int64         // BatchIncr increment (may be negative)
	Cas   uint64        // BatchCas token, from an earlier BatchGets result
}

// BatchResult reports one op's outcome, positionally matching the batch.
type BatchResult struct {
	// Found is true when a delete removed a live entry, an incr found a
	// numeric entry, an add or cas stored, or a get or gets hit; sets always
	// report true.
	Found bool
	// Value is the post-increment value for BatchIncr.
	Value int64
	// Data is the value a BatchGet or BatchGets hit read, Cas the token a
	// BatchGets read with it.
	Data []byte
	Cas  uint64
	// CasResult is a BatchCas outcome (Found mirrors CasStored); it is
	// meaningless for every other kind.
	CasResult CasResult
}

// FailedBatch returns the results of a batch that never reached the cache:
// nothing found, nothing stored, and CasNotFound — not the zero CasResult,
// which is CasStored — for every BatchCas. Batch appliers start from it so an
// op they skip or lose reads as a miss, the way the per-op methods degrade.
func FailedBatch(ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	for i := range ops {
		if ops[i].Kind == BatchCas {
			out[i].CasResult = CasNotFound
		}
	}
	return out
}

// BatchApplier is implemented by caches that can apply many operations in a
// single exchange: the in-process Store (one lock acquisition), the
// cacheproto client (one pipelined round trip), the cluster ring (one
// sub-batch per owning node), and the latency wrapper (one round-trip
// charge). The invalidation bus and core's statement write-set flush through
// this interface.
type BatchApplier interface {
	ApplyBatch(ops []BatchOp) []BatchResult
}

// ApplyBatchOn applies ops to c, using its native batch entry point when it
// has one and falling back to per-op calls otherwise.
func ApplyBatchOn(c Cache, ops []BatchOp) []BatchResult {
	if ba, ok := c.(BatchApplier); ok {
		return ba.ApplyBatch(ops)
	}
	out := make([]BatchResult, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case BatchSet:
			c.Set(op.Key, op.Value, op.TTL)
			out[i] = BatchResult{Found: true}
		case BatchAdd:
			out[i] = BatchResult{Found: c.Add(op.Key, op.Value, op.TTL)}
		case BatchIncr:
			n, ok := c.Incr(op.Key, op.Delta)
			out[i] = BatchResult{Found: ok, Value: n}
		case BatchGets:
			v, tok, ok := c.Gets(op.Key)
			out[i] = BatchResult{Found: ok, Data: v, Cas: tok}
		case BatchGet:
			v, ok := c.Get(op.Key)
			out[i] = BatchResult{Found: ok, Data: v}
		case BatchCas:
			r := c.Cas(op.Key, op.Value, op.TTL, op.Cas)
			out[i] = BatchResult{Found: r == CasStored, CasResult: r}
		default:
			out[i] = BatchResult{Found: c.Delete(op.Key)}
		}
	}
	return out
}

var _ BatchApplier = (*Store)(nil)

// ApplyBatch implements BatchApplier with one lock acquisition per involved
// shard: ops group by owning shard (a counting sort, preserving each
// shard's op order — ops on the same key always hit the same shard), then
// each group applies under a single lock hold. A batch that lands on one
// shard costs exactly one acquisition, as the un-striped store did; a batch
// spanning shards contends with nothing outside the shards it touches.
func (s *Store) ApplyBatch(ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	if len(s.shards) == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		for i := range ops {
			out[i] = s.applyOpLocked(sh, &ops[i])
		}
		sh.mu.Unlock()
		return out
	}
	// Batches smaller than the shard count skip the grouping machinery:
	// their ops mostly land on distinct shards anyway, so per-op lock
	// acquisitions cost less than allocating O(NumShards) bookkeeping (the
	// common invalidation-bus flush is a handful of ops), and per-key
	// ordering is position order either way.
	if len(ops) <= 8 || len(ops) < len(s.shards) {
		for i := range ops {
			sh := s.shardFor(ops[i].Key)
			sh.mu.Lock()
			out[i] = s.applyOpLocked(sh, &ops[i])
			sh.mu.Unlock()
		}
		return out
	}
	// Counting sort of op indices by shard.
	shardOf := make([]uint32, len(ops))
	counts := make([]int32, len(s.shards))
	for i := range ops {
		si := fnv1a32(ops[i].Key) & s.mask
		shardOf[i] = si
		counts[si]++
	}
	starts := make([]int32, len(s.shards))
	var sum int32
	for i, c := range counts {
		starts[i] = sum
		sum += c
	}
	order := make([]int32, len(ops))
	next := append([]int32(nil), starts...)
	for i := range ops {
		si := shardOf[i]
		order[next[si]] = int32(i)
		next[si]++
	}
	for si := range s.shards {
		if counts[si] == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, idx := range order[starts[si]:next[si]] {
			out[idx] = s.applyOpLocked(sh, &ops[idx])
		}
		sh.mu.Unlock()
	}
	return out
}

// applyOpLocked executes one batch op on its shard. Caller holds sh.mu.
func (s *Store) applyOpLocked(sh *shard, op *BatchOp) BatchResult {
	switch op.Kind {
	case BatchSet:
		s.setLocked(sh, op.Key, op.Value, op.TTL, true)
		return BatchResult{Found: true}
	case BatchAdd:
		if e, ok := sh.items[op.Key]; ok && !s.expiredLocked(sh, e) {
			return BatchResult{}
		}
		s.setLocked(sh, op.Key, op.Value, op.TTL, true)
		return BatchResult{Found: true}
	case BatchIncr:
		n, ok := s.incrLocked(sh, op.Key, op.Delta)
		return BatchResult{Found: ok, Value: n}
	case BatchGets, BatchGet:
		e, ok := s.get(sh, op.Key, true)
		if !ok {
			return BatchResult{}
		}
		res := BatchResult{Found: true, Data: exactCopy(e.value)}
		if op.Kind == BatchGets {
			res.Cas = e.casID
		}
		return res
	case BatchCas:
		r := s.casLocked(sh, op.Key, op.Value, op.TTL, op.Cas)
		return BatchResult{Found: r == CasStored, CasResult: r}
	default:
		return BatchResult{Found: s.deleteLocked(sh, op.Key)}
	}
}

var _ BatchApplier = (*LatencyCache)(nil)

// ApplyBatch implements BatchApplier: the whole batch costs one round trip —
// the amortization the invalidation bus exists to exploit.
func (l *LatencyCache) ApplyBatch(ops []BatchOp) []BatchResult {
	l.charge()
	return ApplyBatchOn(l.inner, ops)
}
