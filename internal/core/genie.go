package core

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/invbus"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// Config wires a Genie into an application stack.
type Config struct {
	// Registry is the ORM whose reads CacheGenie intercepts.
	Registry *orm.Registry
	// DB is the engine triggers are installed into. It must be the same
	// database the Registry's connection reaches.
	DB *sqldb.DB
	// Cache is the caching layer (in-process store, protocol client, or
	// cluster ring).
	Cache kvcache.Cache

	// AsyncInvalidation hands each statement's write-set, and each read
	// miss's repopulation, to the asynchronous invalidation bus
	// (internal/invbus) instead of flushing it before the statement returns;
	// the bus's one worker runs the write-set flush over every op published
	// within a window. Writes stop waiting on cache maintenance; in exchange
	// the cache may lag the database by roughly BatchWindow plus queueing and
	// apply time — and so may a read that misses while the key's
	// repopulation is still on the bus: it is answered with what that
	// repopulation loaded, not with a fresh database read (see populate).
	// Call FlushInvalidations to drain when read-your-triggered-writes
	// matters.
	AsyncInvalidation bool
	// BatchWindow is how long the bus worker collects ops before applying
	// them (1ms unless positive). Only meaningful with AsyncInvalidation.
	BatchWindow time.Duration

	// DefaultTTL bounds the lifetime of all cached entries (0 = none).
	DefaultTTL time.Duration
	// Disabled creates the Genie without intercepting reads or installing
	// triggers (the NoCache baseline uses the same wiring).
	Disabled bool
}

// Stats counts Genie activity.
type Stats struct {
	Hits            int64 // reads served from cache
	Misses          int64 // reads that fell through and repopulated
	TriggerUpdates  int64 // in-place cache updates from triggers
	TriggerDeletes  int64 // invalidations from triggers
	TriggerSkips    int64 // trigger found key absent and quit
	Recomputes      int64 // top-K reserve exhausted, full recompute
	CasRetries      int64 // keys deleted after losing a cas between a flush's two batches
	PopulateRefused int64 // Add lost to a concurrent populate
	Waves           int64 // read waves fetched as one batch (two or more distinct keys)
	WaveKeys        int64 // keys those batches carried
}

// Genie is the CacheGenie middleware instance.
type Genie struct {
	reg   *orm.Registry
	db    *sqldb.DB
	cache kvcache.Cache
	cfg   Config
	// bus is non-nil in async mode; write-sets and repopulation publish their
	// ops to it instead of talking to the cache themselves.
	bus *invbus.Bus[op]
	// newWriteSet makes the write-set a statement's first trigger firing
	// attaches to it (sqldb.StatementScope); built once so firings don't
	// allocate a closure each.
	newWriteSet func() sqldb.StatementHook

	mu      sync.Mutex
	objects map[string]*CachedObject
	// byModel indexes transparent cached objects by main model name for
	// interceptor dispatch. Reads load the current snapshot without a lock;
	// Cacheable, under mu, publishes a modified copy.
	byModel atomic.Pointer[map[string][]*CachedObject]

	// pending holds, in async mode, the repopulations published to the bus
	// whose window is not yet applied: key → encoded entry (populate).
	pending sync.Map

	hits            atomic.Int64
	misses          atomic.Int64
	trigUpdates     atomic.Int64
	trigDeletes     atomic.Int64
	trigSkips       atomic.Int64
	recomputes      atomic.Int64
	casRetries      atomic.Int64
	populateRefused atomic.Int64
	waves           atomic.Int64
	waveKeys        atomic.Int64
	// flushOps is the number of cache ops each write-set flush carried in
	// its two batches.
	flushOps obs.Histogram
}

// New creates a Genie and installs it as the registry's read interceptor
// (unless cfg.Disabled).
func New(cfg Config) (*Genie, error) {
	if cfg.Registry == nil || cfg.DB == nil || cfg.Cache == nil {
		return nil, fmt.Errorf("core: Config needs Registry, DB and Cache")
	}
	g := &Genie{
		reg:     cfg.Registry,
		db:      cfg.DB,
		cache:   cfg.Cache,
		cfg:     cfg,
		objects: make(map[string]*CachedObject),
	}
	g.byModel.Store(&map[string][]*CachedObject{})
	g.newWriteSet = func() sqldb.StatementHook { return &writeSet{g: g} }
	if cfg.AsyncInvalidation && !cfg.Disabled {
		g.bus = invbus.New(cfg.BatchWindow, g.applyWindow)
	}
	if !cfg.Disabled {
		cfg.Registry.SetInterceptor(g)
	}
	return g, nil
}

// FlushInvalidations drains the invalidation bus: every trigger op
// published before the call is applied to the cache when it returns. No-op
// in synchronous mode.
func (g *Genie) FlushInvalidations() {
	if g.bus != nil {
		g.bus.Flush()
	}
}

// Close drains and stops the invalidation bus (no-op in synchronous mode).
// Trigger firings after Close fall back to synchronous cache maintenance.
func (g *Genie) Close() {
	if g.bus != nil {
		g.bus.Close()
	}
}

// InvStats returns the invalidation bus's counters (zero in sync mode),
// including the backpressure series: QueueFullStalls and StallTime expose
// how often — and for how long — writers blocked on the bus's full queue.
func (g *Genie) InvStats() invbus.Stats {
	if g.bus == nil {
		return invbus.Stats{}
	}
	return g.bus.Stats()
}

// Stats returns a snapshot of counters.
func (g *Genie) Stats() Stats {
	return Stats{
		Hits:            g.hits.Load(),
		Misses:          g.misses.Load(),
		TriggerUpdates:  g.trigUpdates.Load(),
		TriggerDeletes:  g.trigDeletes.Load(),
		TriggerSkips:    g.trigSkips.Load(),
		Recomputes:      g.recomputes.Load(),
		CasRetries:      g.casRetries.Load(),
		PopulateRefused: g.populateRefused.Load(),
		Waves:           g.waves.Load(),
		WaveKeys:        g.waveKeys.Load(),
	}
}

// Cache returns the caching layer the Genie writes to.
func (g *Genie) Cache() kvcache.Cache { return g.cache }

// Objects returns the registered cached objects sorted by name.
func (g *Genie) Objects() []*CachedObject {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*CachedObject, 0, len(g.objects))
	for _, co := range g.objects {
		out = append(out, co)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].spec.Name < out[b].spec.Name })
	return out
}

// populate stores a freshly computed entry after a read miss. In async mode
// the entry rides the bus as an opPopulate, applied after any trigger ops
// already queued for the key — applying it directly would let a stale queued
// update land on top of (or a queued incr double-count against) the fresh
// database-derived value. Until its window is applied the entry is also kept
// in g.pending, where a read that misses finds it: a page takes a fraction of
// the bus window and comes back for a hot key several times within it, and
// each of those visits would otherwise be another database load.
func (co *CachedObject) populate(key string, vals []sqldb.Value, enc []byte) {
	g := co.g
	if g.bus != nil {
		g.pending.Store(key, enc)
		g.bus.Publish([]op{{co: co, kind: opPopulate, vals: vals, key: key, enc: enc}})
		return
	}
	if !g.cache.Add(key, enc, co.ttl()) {
		g.populateRefused.Add(1)
	}
}

// applyWindow is the bus's apply: the write-set flush over one window's ops,
// with no statement to recompute through. After it, what the window's
// populates loaded is cached or overtaken, and no longer pending.
func (g *Genie) applyWindow(ops []op) (keys int) {
	keys = g.flush(nil, ops)
	for i := range ops {
		if ops[i].kind == opPopulate {
			g.pending.Delete(ops[i].key)
		}
	}
	return keys
}

// dropKey removes a corrupt or unparseable entry, via the bus when async.
func (co *CachedObject) dropKey(key string, vals []sqldb.Value) {
	if co.g.bus != nil {
		co.g.bus.Publish([]op{{co: co, kind: opDelete, vals: vals, key: key}})
		return
	}
	co.g.cache.Delete(key)
}

// CachedObject is one declared cached object: an instance of a cache class
// bound to a model and lookup fields.
type CachedObject struct {
	g     *Genie
	spec  Spec
	model *orm.Model
	// linkThrough is set for LinkQuery.
	linkThrough *orm.Model
	// whereIdx holds the positions of spec.WhereFields in the rows of the
	// model that has them: the main model's, or for LinkQuery the through
	// model's, whose join field is at joinIdx. sortIdx is the top-K sort
	// field's position and targetIdx the link target field's.
	whereIdx                    []int
	sortIdx, targetIdx, joinIdx int
	// sql is the derived query template (paper: "query generation").
	sql string
	// linkSourceField is the one filter a LinkQuery read carries:
	// {spec.Link.SourceField}.
	linkSourceField []string
	// plans are how the object maintains its entries, one per table its
	// triggers watch; triggers are the ones they generate (installed in the
	// DB unless the Genie is Disabled).
	plans    []*plan
	triggers []sqldb.Trigger
}

// Spec returns the object's declaration.
func (co *CachedObject) Spec() Spec { return co.spec }

// QueryTemplate returns the derived SQL template for cache misses.
func (co *CachedObject) QueryTemplate() string { return co.sql }

// Triggers returns the generated triggers (with Source listings).
func (co *CachedObject) Triggers() []sqldb.Trigger { return co.triggers }

// MakeKey builds the cache key for the given lookup values:
// "cg:<object>:{<value>}:<value>...". The braces make the first value the
// key's placement: the ring routes on it alone, so every key of one user (or
// one bookmark) lives on the same node and a page's wave of them is one
// exchange. It is assembled in a stack buffer, so a key costs the one
// allocation of the returned string (keys that outgrow the buffer pay for
// its growth as well).
func (co *CachedObject) MakeKey(vals ...sqldb.Value) string {
	var buf [128]byte
	return string(co.appendKey(buf[:0], vals))
}

// appendKey renders MakeKey's key onto b; a read wave renders all its keys
// into one buffer this way.
func (co *CachedObject) appendKey(b []byte, vals []sqldb.Value) []byte {
	b = append(b, "cg:"...)
	b = append(b, co.spec.Name...)
	for i := range vals {
		if i == 0 {
			b = append(b, ":{"...)
			b = append(appendKeyValue(b, vals[0]), '}')
			continue
		}
		b = append(b, ':')
		b = appendKeyValue(b, vals[i])
	}
	return b
}

// Cacheable declares a cached object: it derives the query template,
// generates and installs the triggers, and (unless the spec is Opaque)
// arms transparent interception for matching ORM queries. This is the
// paper's cacheable(...) entry point.
func (g *Genie) Cacheable(spec Spec) (*CachedObject, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	model, err := g.reg.Model(spec.MainModel)
	if err != nil {
		return nil, err
	}
	co := &CachedObject{g: g, spec: spec, model: model}
	var missing error
	index := func(m *orm.Model, f string) int {
		i, ok := m.FieldIndex(f)
		if !ok && missing == nil {
			missing = fmt.Errorf("core: %s: model %s has no field %q", spec.Name, m.Name, f)
		}
		return i
	}
	keyed := model
	switch spec.Class {
	case LinkQuery:
		through, err := g.reg.Model(spec.Link.ThroughModel)
		if err != nil {
			return nil, err
		}
		co.linkThrough, keyed = through, through
		co.linkSourceField = []string{spec.Link.SourceField}
		co.joinIdx = index(through, spec.Link.JoinField)
		co.targetIdx = index(model, spec.Link.TargetField)
	case TopKQuery:
		co.sortIdx = index(model, spec.SortField)
	}
	co.whereIdx = make([]int, len(spec.WhereFields))
	for i, f := range spec.WhereFields {
		co.whereIdx[i] = index(keyed, f)
	}
	if missing != nil {
		return nil, missing
	}
	co.sql = co.buildQueryTemplate()
	co.compile()

	// The object is published only once its triggers are in: a declaration
	// that fails leaves nothing behind, and a retry may succeed.
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.objects[spec.Name]; dup {
		return nil, fmt.Errorf("core: cached object %q already declared", spec.Name)
	}
	if !g.cfg.Disabled {
		if err := co.installTriggers(); err != nil {
			return nil, err
		}
	}
	g.objects[spec.Name] = co
	if !spec.Opaque {
		old := *g.byModel.Load()
		next := make(map[string][]*CachedObject, len(old)+1)
		maps.Copy(next, old)
		next[model.Name] = append(old[model.Name][:len(old[model.Name]):len(old[model.Name])], co)
		g.byModel.Store(&next)
	}
	return co, nil
}

// buildQueryTemplate derives the SQL issued on cache misses.
func (co *CachedObject) buildQueryTemplate() string {
	cols := make([]string, 0, len(co.model.Fields)+1)
	for _, c := range co.model.FieldNames() {
		cols = append(cols, co.model.Table+"."+c)
	}
	colList := strings.Join(cols, ", ")
	where := make([]string, len(co.spec.WhereFields))
	switch co.spec.Class {
	case LinkQuery:
		l := co.spec.Link
		return fmt.Sprintf("SELECT %s FROM %s JOIN %s ON %s.%s = %s.%s WHERE %s.%s = $1",
			colList, co.linkThrough.Table, co.model.Table,
			co.model.Table, l.TargetField, co.linkThrough.Table, l.JoinField,
			co.linkThrough.Table, l.SourceField)
	case CountQuery:
		for i, f := range co.spec.WhereFields {
			where[i] = fmt.Sprintf("%s.%s = $%d", co.model.Table, f, i+1)
		}
		return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s",
			co.model.Table, strings.Join(where, " AND "))
	case TopKQuery:
		for i, f := range co.spec.WhereFields {
			where[i] = fmt.Sprintf("%s.%s = $%d", co.model.Table, f, i+1)
		}
		dir := ""
		if co.spec.SortDesc {
			dir = " DESC"
		}
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s ORDER BY %s.%s%s LIMIT %d",
			colList, co.model.Table, strings.Join(where, " AND "),
			co.model.Table, co.spec.SortField, dir, co.spec.K+co.spec.reserve())
	default: // FeatureQuery
		for i, f := range co.spec.WhereFields {
			where[i] = fmt.Sprintf("%s.%s = $%d", co.model.Table, f, i+1)
		}
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
			colList, co.model.Table, strings.Join(where, " AND "))
	}
}

// ttl returns the object's entry TTL.
func (co *CachedObject) ttl() time.Duration {
	if co.spec.Strategy == Expiry {
		return co.spec.TTL
	}
	if co.spec.TTL > 0 {
		return co.spec.TTL
	}
	return co.g.cfg.DefaultTTL
}

// lookup is one read of a cached object: the object, its lookup values and
// key, and — inside a wave — the answer the wave's batched read parked for it.
type lookup struct {
	co   *CachedObject
	vals []sqldb.Value
	key  string
	// parked marks raw/hit as this key's answer from the wave's batch, good
	// for one use: a second lookup of the key in the same wave was not parked
	// and reads the cache after the first has populated or repaired it.
	parked bool
	hit    bool
	// decoded marks rows as the parked hit's list, decoded with the rest of
	// the wave's (decodeWave); a parked row-object hit left undecoded is
	// corrupt, and the lookup drops and reloads it.
	decoded bool
	raw     []byte
	rows    []sqldb.Row
}

// parkedList reports whether l holds a parked hit of a row-valued object: a
// list for decodeWave to decode.
func (l *lookup) parkedList() bool {
	return l.parked && l.hit && l.co.spec.Class != CountQuery
}

// get is the lookup's one cache read: the parked answer if there is one, a
// plain Get otherwise.
func (l *lookup) get() ([]byte, bool) {
	g := l.co.g
	var raw []byte
	var hit bool
	if l.parked {
		raw, hit = l.raw, l.hit
		l.parked, l.raw = false, nil
	} else {
		raw, hit = g.cache.Get(l.key)
	}
	if !hit && g.bus != nil {
		// The entry may be on its way: what an earlier miss loaded and the bus
		// has yet to apply is what the cache is about to hold.
		if enc, ok := g.pending.Load(l.key); ok {
			return enc.([]byte), true
		}
	}
	return raw, hit
}

// Rows evaluates the cached object for the given lookup values, reading the
// cache first and populating it from the database on a miss (the paper's
// evaluate()). Valid for FeatureQuery, LinkQuery and TopKQuery.
func (co *CachedObject) Rows(vals ...sqldb.Value) ([]sqldb.Row, error) {
	if co.spec.Class == CountQuery {
		return nil, fmt.Errorf("core: %s is a CountQuery; call Count", co.spec.Name)
	}
	return co.rows(&lookup{co: co, vals: vals, key: co.MakeKey(vals...)})
}

func (co *CachedObject) rows(l *lookup) ([]sqldb.Row, error) {
	key, vals := l.key, l.vals
	if l.parked && l.decoded {
		rows := l.rows
		l.parked, l.decoded, l.rows = false, false, nil
		co.g.hits.Add(1)
		return co.firstK(rows), nil
	}
	if raw, ok := l.get(); ok {
		p, err := decodePayload(raw)
		if err == nil {
			co.g.hits.Add(1)
			return co.firstK(p.rows), nil
		}
		// Corrupt entry: drop it and fall through to the database.
		co.dropKey(key, vals)
	}
	co.g.misses.Add(1)
	rows, exhaustive, err := co.fetchFromDB(co.g.reg.Conn(), vals)
	if err != nil {
		return nil, err
	}
	co.populate(key, vals, encodePayload(payload{exhaustive: exhaustive, rows: rows}))
	return co.firstK(rows), nil
}

// firstK is what a read of the object serves of its cached rows: a top-K list
// holds K plus a reserve and serves the first K, capped so an append to them
// cannot reach the reserve.
func (co *CachedObject) firstK(rows []sqldb.Row) []sqldb.Row {
	if co.spec.Class == TopKQuery && len(rows) > co.spec.K {
		return rows[:co.spec.K:co.spec.K]
	}
	return rows
}

// Count evaluates a CountQuery object.
func (co *CachedObject) Count(vals ...sqldb.Value) (int64, error) {
	if co.spec.Class != CountQuery {
		return 0, fmt.Errorf("core: %s is not a CountQuery", co.spec.Name)
	}
	return co.count(&lookup{co: co, vals: vals, key: co.MakeKey(vals...)})
}

func (co *CachedObject) count(l *lookup) (int64, error) {
	key, vals := l.key, l.vals
	if raw, ok := l.get(); ok {
		if n, ok := parseCount(raw); ok {
			co.g.hits.Add(1)
			return n, nil
		}
		co.dropKey(key, vals)
	}
	co.g.misses.Add(1)
	args := make([]sqldb.Value, len(vals))
	copy(args, vals)
	rs, err := co.g.reg.Conn().Query(co.sql, args...)
	if err != nil {
		return 0, err
	}
	n := rs.Rows[0][0].I
	co.populate(key, vals, strconv.AppendInt(nil, n, 10))
	return n, nil
}

// fetchFromDB runs the query template over q.
func (co *CachedObject) fetchFromDB(q interface {
	Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error)
}, vals []sqldb.Value) (rows []sqldb.Row, exhaustive bool, err error) {
	args := make([]sqldb.Value, len(vals))
	copy(args, vals)
	rs, err := q.Query(co.sql, args...)
	if err != nil {
		return nil, false, err
	}
	exhaustive = true
	if co.spec.Class == TopKQuery {
		exhaustive = len(rs.Rows) < co.spec.K+co.spec.reserve()
	}
	return rs.Rows, exhaustive, nil
}

func parseCount(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	neg := false
	i := 0
	if b[0] == '-' {
		neg, i = true, 1
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

// ---------- orm.Interceptor ----------

var _ orm.Interceptor = (*Genie)(nil)

// match finds the declared cached object whose pattern d fits and appends the
// lookup values d carries for it to buf; co is nil when no object answers d.
func (g *Genie) match(d *orm.QueryDescriptor, buf []sqldb.Value) (co *CachedObject, vals []sqldb.Value) {
	for _, co := range (*g.byModel.Load())[d.Model.Name] {
		fields := co.spec.WhereFields
		switch co.spec.Class {
		case CountQuery:
			if d.Kind != orm.KindCount || d.Join != nil {
				continue
			}
		case FeatureQuery:
			if d.Kind != orm.KindRows || d.Join != nil || len(d.Order) > 0 || d.Limit >= 0 {
				continue
			}
		case TopKQuery:
			if d.Kind != orm.KindRows || d.Join != nil || d.Limit <= 0 || d.Limit > co.spec.K {
				continue
			}
			if len(d.Order) != 1 || d.Order[0].Field != co.spec.SortField || d.Order[0].Desc != co.spec.SortDesc {
				continue
			}
		case LinkQuery:
			if d.Kind != orm.KindRows || d.Join == nil || len(d.Order) > 0 || d.Limit >= 0 {
				continue
			}
			l := co.spec.Link
			if d.Join.ThroughModel != l.ThroughModel || d.Join.SourceField != l.SourceField ||
				d.Join.JoinField != l.JoinField || d.Join.TargetField != l.TargetField {
				continue
			}
			fields = co.linkSourceField
		}
		if vals, ok := d.AppendEqFilterValues(buf, fields); ok {
			return co, vals
		}
	}
	return nil, buf
}

// waveReads is what the Genie keeps in an orm.Wave's State: one lookup per
// wave descriptor, in Wave.Descriptors order (co nil where no object matched).
type waveReads []lookup

// resolve returns d's lookup (co nil when no cached object answers d). For a
// descriptor declared in a wave it is the wave's: the first descriptor to
// arrive resolves every sibling and fetches all their keys in one batch, and
// the later ones find their answers parked. Any other descriptor resolves
// into own, the caller's scratch.
func (g *Genie) resolve(d *orm.QueryDescriptor, own *lookup) *lookup {
	// A descriptor its wave does not list, or a State that is not ours, is
	// answered as if no wave had been declared.
	if w := d.Wave; w != nil && uint(d.WaveIndex) < uint(len(w.Descriptors)) && w.Descriptors[d.WaveIndex] == d {
		if w.State == nil {
			w.State = g.readWave(w.Descriptors)
		}
		if reads, ok := w.State.(waveReads); ok && len(reads) == len(w.Descriptors) {
			return &reads[d.WaveIndex]
		}
	}
	if own.co, own.vals = g.match(d, nil); own.co != nil {
		own.key = own.co.MakeKey(own.vals...)
	}
	return own
}

// readWave resolves a wave's descriptors and reads their keys as one batch of
// BatchGet ops — one exchange with each cache node involved instead of one per
// key. A key two descriptors share is fetched, and parked, once. A wave of a
// single key is left to that lookup's own Get. Every key is rendered into one
// buffer and the keys are substrings of one string; the hits are decoded
// together (decodeWave).
func (g *Genie) readWave(ds []*orm.QueryDescriptor) waveReads {
	reads := make(waveReads, len(ds))
	vals := make([]sqldb.Value, 0, len(ds)+2) // every lookup's values, back to back; most have one
	// ends[i] is where reads[i]'s key ends in keys.
	var keyBuf [512]byte
	var endBuf [16]int
	keys, ends := keyBuf[:0], endBuf[:0]
	for i, d := range ds {
		l := &reads[i]
		from := len(vals)
		if l.co, vals = g.match(d, vals); l.co != nil {
			l.vals = vals[from:len(vals):len(vals)]
			keys = l.co.appendKey(keys, l.vals)
		}
		ends = append(ends, len(keys))
	}
	all := string(keys)
	ops := make([]kvcache.BatchOp, 0, len(ds))
	for i, from := 0, 0; i < len(reads); i++ {
		l := &reads[i]
		l.key, from = all[from:ends[i]], ends[i]
		if l.co == nil {
			continue
		}
		l.parked = true
		for j := range reads[:i] {
			if reads[j].parked && reads[j].key == l.key {
				l.parked = false
				break
			}
		}
		if l.parked {
			ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchGet, Key: l.key})
		}
	}
	if len(ops) < 2 {
		for i := range reads {
			reads[i].parked = false
		}
		return reads
	}
	g.waves.Add(1)
	g.waveKeys.Add(int64(len(ops)))
	res := g.cache.ApplyBatch(ops)
	n := 0
	for i := range reads {
		if l := &reads[i]; l.parked {
			l.hit, l.raw = res[n].Found, res[n].Data
			n++
		}
	}
	decodeWave(reads)
	return reads
}

// decodeWave decodes every parked row-object hit of a wave as decodePayload
// decodes one list, but in three allocations for the whole wave: one string
// holding all their bytes, whose substrings are the text values, one
// []sqldb.Value and one []sqldb.Row. Each lookup's list is a capped window of
// those, so an append to one list or row never reaches a sibling, and every
// list keeps the whole wave's decode alive. A hit that does not frame or
// decode is left undecoded: its lookup drops and reloads it.
func decodeWave(reads waveReads) {
	// frames holds, in order, each parked row-object hit's frame; a zero frame
	// (start 0) marks one that did not frame.
	var frameBuf [16]frame
	frames := frameBuf[:0]
	size, values, rows := 0, 0, 0
	for i := range reads {
		l := &reads[i]
		if !l.parkedList() {
			continue
		}
		f, err := framePayload(l.raw)
		if err != nil {
			f = frame{}
		} else {
			size, values, rows = size+len(l.raw), values+f.values, rows+f.rows
		}
		frames = append(frames, f)
	}
	if size == 0 {
		return
	}
	var sb strings.Builder
	sb.Grow(size)
	k := 0
	for i := range reads {
		if l := &reads[i]; l.parkedList() {
			if frames[k].start != 0 {
				sb.Write(l.raw)
			}
			k++
		}
	}
	text := sb.String()
	vals := make([]sqldb.Value, 0, values)
	lists := make([]sqldb.Row, 0, rows)
	k = 0
	for i := range reads {
		l := &reads[i]
		if !l.parkedList() {
			continue
		}
		f := frames[k]
		k++
		if f.start == 0 {
			continue
		}
		s := text[:len(l.raw)]
		text = text[len(l.raw):]
		from := len(lists)
		var err error
		if vals, lists, err = decodeFramed(vals, lists, l.raw, s, f); err != nil {
			continue
		}
		l.rows = lists[from:len(lists):len(lists)]
		l.decoded, l.raw = true, nil
	}
}

// InterceptRows implements orm.Interceptor: FeatureQuery, TopKQuery and
// LinkQuery patterns are served from the cache.
func (g *Genie) InterceptRows(d *orm.QueryDescriptor) ([]sqldb.Row, bool, error) {
	var own lookup
	l := g.resolve(d, &own)
	if l.co == nil || l.co.spec.Class == CountQuery {
		return nil, false, nil
	}
	rows, err := l.co.rows(l)
	if l.co.spec.Class == TopKQuery && err == nil && len(rows) > d.Limit {
		rows = rows[:d.Limit]
	}
	return rows, true, err
}

// InterceptCount implements orm.Interceptor for CountQuery patterns.
func (g *Genie) InterceptCount(d *orm.QueryDescriptor) (int64, bool, error) {
	var own lookup
	l := g.resolve(d, &own)
	if l.co == nil || l.co.spec.Class != CountQuery {
		return 0, false, nil
	}
	n, err := l.co.count(l)
	return n, true, err
}
