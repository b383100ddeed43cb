package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/cluster"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// layer names the seam a span was recorded at. The order is outermost
// first; ties in start time sort by it.
type layer uint8

const (
	layerPage  layer = iota // App.RunPage: social handlers + ORM
	layerCore               // orm.Interceptor call into the Genie
	layerDB                 // orm.Conn statement on sqldb
	layerCache              // the logical cache the Genie talks to
	layerNode               // one cache node under the cluster ring
	numLayers
)

var layerNames = [numLayers]string{"page", "core", "db", "cache", "node"}

// Cache ops, the Op of layerCache and layerNode spans.
const (
	opGet uint8 = iota
	opGets
	opSet
	opAdd
	opCas
	opDelete
	opIncr
	opBatch
	opFlush
	numCacheOps
)

var cacheOpNames = [numCacheOps]string{"get", "gets", "set", "add", "cas", "delete", "incr", "batch", "flush"}

// DB ops, the Op of layerDB spans.
const (
	opQuery uint8 = iota
	opExec
)

// Interceptor ops, the Op of layerCore spans.
const (
	opRows uint8 = iota
	opCount
)

// span is one flat trace record. Times are nanoseconds since the tracer's
// epoch. Background spans were recorded on invalidation-bus workers and are
// never charged to a page.
type span struct {
	Layer      layer
	Op         uint8
	Node       uint8 // layerNode: ring position
	Background bool
	N          int32 // opBatch: ops in the batch
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. While off, every decorator is a
// pass-through costing one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

// begin returns the span start, or -1 when tracing is off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

// end records the span begun at t0 (a no-op for t0 < 0).
func (t *tracer) end(t0 int64, s span) {
	if t0 < 0 {
		return
	}
	s.Start, s.End = t0, int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and resets the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans dumps spans as tab-separated text, one per line: layer, op,
// node, lane, batch size, start_ns, end_ns.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "layer\top\tnode\tlane\tn\tstart_ns\tend_ns")
	for _, s := range spans {
		lane := "fg"
		if s.Background {
			lane = "bg"
		}
		fmt.Fprintf(bw, "%s\t%s\t%d\t%s\t%d\t%d\t%d\n",
			layerNames[s.Layer], spanOpName(s), s.Node, lane, s.N, s.Start, s.End)
	}
	return bw.Flush()
}

func spanOpName(s span) string {
	switch s.Layer {
	case layerPage:
		return pageTypeName(s.Op)
	case layerCore:
		if s.Op == opRows {
			return "rows"
		}
		return "count"
	case layerDB:
		if s.Op == opQuery {
			return "query"
		}
		return "exec"
	}
	return cacheOpNames[s.Op]
}

// tracedCache decorates a kvcache.Cache at one of the two cache seams. It
// forwards the optional interfaces the layers above probe for by type
// assertion — kvcache.BatchApplier, cluster.HealthReporter, Unwrap — so the
// ring keeps batching and skipping unhealthy nodes with the decorator in
// place.
type tracedCache struct {
	inner kvcache.Cache
	tr    *tracer
	layer layer
	node  uint8
	// busWrites marks an async stack: there the page path only ever calls
	// Get (triggers and repopulation publish to the bus), so every other op
	// arriving here comes from a bus worker and is background.
	busWrites bool
}

var (
	_ kvcache.Cache          = (*tracedCache)(nil)
	_ kvcache.BatchApplier   = (*tracedCache)(nil)
	_ cluster.HealthReporter = (*tracedCache)(nil)
)

func (c *tracedCache) end(t0 int64, op uint8, n int) {
	c.tr.end(t0, span{Layer: c.layer, Op: op, Node: c.node, N: int32(n),
		Background: c.busWrites && op != opGet})
}

func (c *tracedCache) Get(key string) ([]byte, bool) {
	t0 := c.tr.begin()
	v, ok := c.inner.Get(key)
	c.end(t0, opGet, 0)
	return v, ok
}

func (c *tracedCache) Gets(key string) ([]byte, uint64, bool) {
	t0 := c.tr.begin()
	v, tok, ok := c.inner.Gets(key)
	c.end(t0, opGets, 0)
	return v, tok, ok
}

func (c *tracedCache) Set(key string, value []byte, ttl time.Duration) {
	t0 := c.tr.begin()
	c.inner.Set(key, value, ttl)
	c.end(t0, opSet, 0)
}

func (c *tracedCache) Add(key string, value []byte, ttl time.Duration) bool {
	t0 := c.tr.begin()
	ok := c.inner.Add(key, value, ttl)
	c.end(t0, opAdd, 0)
	return ok
}

func (c *tracedCache) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	t0 := c.tr.begin()
	r := c.inner.Cas(key, value, ttl, cas)
	c.end(t0, opCas, 0)
	return r
}

func (c *tracedCache) Delete(key string) bool {
	t0 := c.tr.begin()
	ok := c.inner.Delete(key)
	c.end(t0, opDelete, 0)
	return ok
}

func (c *tracedCache) Incr(key string, delta int64) (int64, bool) {
	t0 := c.tr.begin()
	n, ok := c.inner.Incr(key, delta)
	c.end(t0, opIncr, 0)
	return n, ok
}

func (c *tracedCache) FlushAll() {
	t0 := c.tr.begin()
	c.inner.FlushAll()
	c.end(t0, opFlush, 0)
}

// ApplyBatch forwards to the inner cache's native batch entry point (or the
// per-op fallback, exactly as an undecorated cache would get).
func (c *tracedCache) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	t0 := c.tr.begin()
	res := kvcache.ApplyBatchOn(c.inner, ops)
	c.end(t0, opBatch, len(ops))
	return res
}

// Healthy forwards cluster.HealthReporter; caches without one are healthy,
// the ring's own default.
func (c *tracedCache) Healthy() bool {
	if hr, ok := c.inner.(cluster.HealthReporter); ok {
		return hr.Healthy()
	}
	return true
}

// Unwrap lets Genie.ReplicaStats reach the ring through the decorator.
func (c *tracedCache) Unwrap() kvcache.Cache { return c.inner }

// tracedInterceptor decorates the Genie's orm.Interceptor seam and counts
// the queries the ORM offers it.
type tracedInterceptor struct {
	inner   orm.Interceptor
	tr      *tracer
	offered atomic.Int64
}

func (i *tracedInterceptor) InterceptRows(d *orm.QueryDescriptor) ([]sqldb.Row, bool, error) {
	i.offered.Add(1)
	t0 := i.tr.begin()
	rows, ok, err := i.inner.InterceptRows(d)
	i.tr.end(t0, span{Layer: layerCore, Op: opRows})
	return rows, ok, err
}

func (i *tracedInterceptor) InterceptCount(d *orm.QueryDescriptor) (int64, bool, error) {
	i.offered.Add(1)
	t0 := i.tr.begin()
	n, ok, err := i.inner.InterceptCount(d)
	i.tr.end(t0, span{Layer: layerCore, Op: opCount})
	return n, ok, err
}

// budget is what the span list alone yields: per-layer self time on the
// page path, background totals, and the per-op duration samples.
type budget struct {
	Pages int64
	// PageNs is the summed duration of page spans; SelfNs[l] the part of it
	// spent in layer l itself (a span minus the union of the spans it
	// contains), so the SelfNs sum reconciles with PageNs.
	PageNs int64
	SelfNs [numLayers]int64
	// Spans counts foreground spans per layer; CacheOps/NodeOps count both
	// lanes.
	Spans    [numLayers]int64
	CacheOps int64
	NodeOps  int64
	PerNode  []int64
	// TriggerCacheNs is logical-cache time nested inside a statement span:
	// synchronous trigger maintenance.
	TriggerCacheNs int64
	// BackgroundNs is logical-cache time spent by bus workers.
	BackgroundNs int64
	// Batches and BatchOps count node-level (or, without a ring,
	// logical-level) batch applications and the ops they carried.
	Batches, BatchOps int64
	// Durations by op for quantiles, nanoseconds.
	NodeGet, NodeCas, NodeBatch []int64
	DBQuery, DBExec             []int64
	DBNs                        int64
}

// frame is one open span during the nesting walk.
type frame struct {
	span
	covered      int64 // union length of child spans
	coveredUntil int64
}

// analyze computes the budget from a span list. Foreground spans come from
// a single client goroutine (plus any parallel fan-out it waits for), so
// they nest by time; sorting by start and walking a stack recovers the
// tree without recorded parent ids.
func analyze(spans []span) budget {
	var b budget
	fg := make([]span, 0, len(spans))
	batchLayer := layerCache
	for _, s := range spans {
		if s.Layer == layerNode {
			batchLayer = layerNode
			break
		}
	}
	for _, s := range spans {
		switch s.Layer {
		case layerCache:
			b.CacheOps++
			if s.Background {
				b.BackgroundNs += s.dur()
			}
		case layerNode:
			b.NodeOps++
			for int(s.Node) >= len(b.PerNode) {
				b.PerNode = append(b.PerNode, 0)
			}
			b.PerNode[s.Node]++
			switch s.Op {
			case opGet:
				b.NodeGet = append(b.NodeGet, s.dur())
			case opCas:
				b.NodeCas = append(b.NodeCas, s.dur())
			case opBatch:
				b.NodeBatch = append(b.NodeBatch, s.dur())
			}
		case layerDB:
			b.DBNs += s.dur()
			if s.Op == opQuery {
				b.DBQuery = append(b.DBQuery, s.dur())
			} else {
				b.DBExec = append(b.DBExec, s.dur())
			}
		}
		if s.Op == opBatch && s.Layer == batchLayer {
			b.Batches++
			b.BatchOps += int64(s.N)
		}
		if !s.Background {
			fg = append(fg, s)
		}
	}
	sort.Slice(fg, func(i, j int) bool {
		a, c := fg[i], fg[j]
		if a.Start != c.Start {
			return a.Start < c.Start
		}
		if a.End != c.End {
			return a.End > c.End
		}
		return a.Layer < c.Layer
	})
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b.SelfNs[f.Layer] += f.dur() - f.covered
	}
	for _, s := range fg {
		for len(stack) > 0 && s.End > stack[len(stack)-1].End {
			pop()
		}
		if len(stack) == 0 && s.Layer != layerPage {
			continue // outside any page: audit, probes, drain
		}
		b.Spans[s.Layer]++
		if s.Layer == layerPage {
			b.Pages++
			b.PageNs += s.dur()
		}
		if s.Layer == layerCache {
			for _, f := range stack {
				if f.Layer == layerDB {
					b.TriggerCacheNs += s.dur()
					break
				}
			}
		}
		if n := len(stack); n > 0 {
			p := &stack[n-1]
			from := max(s.Start, p.coveredUntil)
			if s.End > from {
				p.covered += s.End - from
				p.coveredUntil = s.End
			}
		}
		stack = append(stack, frame{span: s})
	}
	for len(stack) > 0 {
		pop()
	}
	return b
}
