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

// BatchApplier is the batch entry point every Cache has. It keeps a name of
// its own because the page-load benchmark asserts it on its decorator.
type BatchApplier interface {
	ApplyBatch(ops []BatchOp) []BatchResult
}

// ApplyBatchOn is c.ApplyBatch(ops). It remains only because the page-load
// benchmark's frozen tracer calls it.
func ApplyBatchOn(c Cache, ops []BatchOp) []BatchResult { return c.ApplyBatch(ops) }

// ApplyBatch implements Cache with one lock acquisition per involved
// shard: ops group by owning shard (a counting sort, preserving each
// shard's op order — ops on the same key always hit the same shard), then
// each group applies under a single lock hold. A batch that lands on one
// shard costs exactly one acquisition, as the un-striped store did; a batch
// spanning shards contends with nothing outside the shards it touches. The
// values the batch's gets read are copied into one slab sized beforehand
// (readBytes), each hit's Data a capped window of it.
func (s *Store) ApplyBatch(ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	slab := make([]byte, 0, s.readBytes(ops))
	if len(s.shards) == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		for i := range ops {
			out[i] = s.applyOpLocked(sh, &ops[i], &slab)
		}
		sh.mu.Unlock()
		return out
	}
	// Batches smaller than the shard count skip the grouping machinery:
	// their ops mostly land on distinct shards anyway, so per-op lock
	// acquisitions cost less than allocating O(NumShards) bookkeeping (the
	// common write-set flush is a handful of ops), and per-key
	// ordering is position order either way.
	if len(ops) <= 8 || len(ops) < len(s.shards) {
		for i := range ops {
			sh := shardFor(s, ops[i].Key)
			sh.mu.Lock()
			out[i] = s.applyOpLocked(sh, &ops[i], &slab)
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
			out[idx] = s.applyOpLocked(sh, &ops[idx], &slab)
		}
		sh.mu.Unlock()
	}
	return out
}

// readBytes is how many bytes ops' gets would read now: the size of the slab
// their copies share. It peeks without touching LRU order or statistics; a
// value that outgrows its share before the batch reads it is copied on its
// own, so the count only has to be right in the common case.
func (s *Store) readBytes(ops []BatchOp) int {
	n := 0
	for i := range ops {
		if k := ops[i].Kind; k != BatchGet && k != BatchGets {
			continue
		}
		sh := shardFor(s, ops[i].Key)
		sh.mu.Lock()
		if e, ok := sh.items[ops[i].Key]; ok {
			n += len(e.value)
		}
		sh.mu.Unlock()
	}
	return n
}

// applyOpLocked executes one batch op on its shard; a get's value is copied
// into slab when it has room. Caller holds sh.mu.
func (s *Store) applyOpLocked(sh *shard, op *BatchOp, slab *[]byte) BatchResult {
	switch op.Kind {
	case BatchSet:
		setLocked(s, sh, op.Key, op.Value, op.TTL)
		return BatchResult{Found: true}
	case BatchAdd:
		return BatchResult{Found: addLocked(s, sh, op.Key, op.Value, op.TTL)}
	case BatchIncr:
		n, ok := incrLocked(s, sh, op.Key, op.Delta)
		return BatchResult{Found: ok, Value: n}
	case BatchGets, BatchGet:
		e, ok := get(s, sh, op.Key, true)
		if !ok {
			return BatchResult{}
		}
		res := BatchResult{Found: true}
		if b := *slab; cap(b)-len(b) >= len(e.value) {
			from := len(b)
			*slab = append(b, e.value...)
			res.Data = (*slab)[from:len(*slab):len(*slab)]
		} else {
			res.Data = exactCopy(e.value)
		}
		if op.Kind == BatchGets {
			res.Cas = e.casID
		}
		return res
	case BatchCas:
		r := casLocked(s, sh, op.Key, op.Value, op.TTL, op.Cas)
		return BatchResult{Found: r == CasStored, CasResult: r}
	default:
		return BatchResult{Found: deleteLocked(s, sh, op.Key)}
	}
}
