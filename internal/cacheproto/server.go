// Package cacheproto implements a memcached-style text protocol over TCP
// for the kvcache store, plus a client that satisfies kvcache.Cache. The
// paper runs an unmodified memcached 1.4.5 on its own machine; cmd/geniecache
// serves this protocol so the full three-machine deployment can be
// reproduced end to end.
//
// Supported commands (subset of memcached's ASCII protocol):
//
//	get <key>\r\n
//	gets <key>\r\n
//	set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//	add <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//	cas <key> <flags> <exptime> <bytes> <casid>\r\n<data>\r\n
//	delete <key>\r\n
//	incr <key> <delta>\r\n  (delta may be negative: memcached decr folded in)
//	flush_all\r\n
//	stats\r\n
//	keys\r\n  (KEY <key> per live key then END; cluster key handoff uses it)
//	quit\r\n
//
// Plus one extension beyond memcached's command set, which turns any run of
// single-key commands into one network round trip:
//
//	mop <count>\r\n
//	<count> sub-commands (gets / set / add / cas / delete / incr, standard
//	form, data blocks included)
//
// The server executes the sub-commands in order and buffers each one's
// standard reply — a gets answers VALUE <key> 0 <bytes> <casid>, the data
// block and END on a hit and a bare END on a miss; a cas answers STORED,
// EXISTS or NOT_FOUND; the others answer their usual single line — then
// closes the batch with one more END\r\n and flushes. A sub-command outside
// that list, or one that is malformed, aborts the batch with CLIENT_ERROR in
// place of the remaining replies and closes the connection: the rest of the
// pipelined batch is already in the stream and must not run as top-level
// commands.
//
// Two callers batch this way. Core's write-set flush (internal/core) sends
// one write statement's trigger maintenance — or, on the invalidation bus,
// a whole window of statements' — as two batches per node: the gets for
// every entry it is about to edit together with the incr, delete and add ops
// that need no read, then the cas (or add) writes computed from what the
// gets read. A cas answered EXISTS lost a race between the two batches. A
// page's read wave sends its lookups as one batch of gets.
//
// The request path is allocation-free in steady state: command lines are
// read with a reusable buffer and split into byte-slice fields in place,
// value data lands in a per-connection buffer the store copies from, reads
// append into a per-connection scratch buffer, and responses are assembled
// with strconv.Append* instead of fmt. Combined with the store's []byte-key
// entry points, a get or an overwrite set performs zero heap allocations.
package cacheproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"cachegenie/internal/kvcache"
)

// maxValueBytes bounds one value's size (memcached's classic 1 MB object
// limit). An oversized set/add/cas is consumed from the stream and refused
// with CLIENT_ERROR, keeping the connection framed and the server alive —
// without the bound a hostile byte count would make the server allocate it.
const maxValueBytes = 1 << 20

// maxMopOps bounds one pipelined batch. The write-set flush sends far
// smaller batches; anything larger is a protocol error, not a workload.
const maxMopOps = 1 << 16

// connBufBytes sizes the bufio reader and writer on both ends of a
// connection. A pipelined exchange is one exchange only while each direction
// fits its writer: past that bufio flushes mid-request, the peer wakes on a
// fragment and goes back to sleep, and a mop carrying a few cached row lists
// (several KB each) paid that several times per batch at bufio's 4 KB
// default.
const connBufBytes = 16 << 10

// retainedValueBuf caps the per-connection value buffer kept between
// requests; a one-off near-limit value doesn't pin its memory forever.
const retainedValueBuf = 64 << 10

// defaultIOTimeout is the per-request I/O budget a new Server starts with;
// see Server.IOTimeout.
const defaultIOTimeout = 30 * time.Second

// Server serves the text protocol for a Store.
type Server struct {
	store *kvcache.Store
	m     *ServerMetrics // always-on; see ServerMetrics

	// IOTimeout bounds the I/O of one in-flight request: once a command
	// line has arrived, the data-block read and the response write must
	// complete within it or the connection is dropped. It does NOT bound
	// the idle wait between requests — persistent connections may sit
	// quiet indefinitely. <= 0 disables the deadline. Set before Listen.
	IOTimeout time.Duration

	// mu guards listener/conn bookkeeping; accept and serve loops run
	// outside it.
	//
	//genie:nonblocking
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	acceptWG sync.WaitGroup
}

// NewServer wraps store.
func NewServer(store *kvcache.Store) *Server {
	return &Server{
		store:     store,
		m:         &ServerMetrics{},
		conns:     make(map[net.Conn]struct{}),
		IOTimeout: defaultIOTimeout,
	}
}

// Metrics returns the server's always-on instrumentation, for registry
// attachment or direct inspection.
func (s *Server) Metrics() *ServerMetrics { return s.m }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the server and closes all connections. Safe to call more than
// once; later calls just wait for the teardown to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil && !wasClosed {
		err = ln.Close()
	}
	s.acceptWG.Wait()
	s.wg.Wait()
	return err
}

// RestartServer builds a fresh Server over store and binds it to addr,
// retrying the bind briefly because a just-closed listener's port can
// linger. The store is flushed first: a revived node comes back cold, the
// way a restarted process would. Shared by the revive paths (the workload
// stack's ReviveNode and geniecache's failure drill).
func RestartServer(store *kvcache.Store, addr string) (*Server, error) {
	store.FlushAll()
	srv := NewServer(store)
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if _, err = srv.Listen(addr); err == nil {
			return srv, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("cacheproto: restart server on %s: %w", addr, err)
}

// serverConn is one connection's request-processing state: every buffer a
// request needs lives here and is reused across requests, so the hot path
// allocates nothing after the first few commands.
type serverConn struct {
	store *kvcache.Store
	r     *bufio.Reader
	w     *bufio.Writer

	// conn/ioTimeout arm the per-request deadline (Server.IOTimeout); both
	// stay zero when benchmarks drive the dispatch loop without a socket.
	conn      net.Conn
	ioTimeout time.Duration

	m *ServerMetrics

	line      []byte   // overflow line assembly (lines longer than the bufio buffer)
	fields    [][]byte // reusable field-slice headers
	subFields [][]byte // separate header buffer for mop sub-commands
	key       []byte   // key copy surviving the data-block read
	val       []byte   // data-block buffer (set/add/cas payloads)
	scratch   []byte   // value bytes fetched from the store (get/gets)
	num       []byte   // strconv.Append* staging
}

// newServerConn assembles the per-connection state over a reader/writer
// pair. Split from serveConn so in-package benchmarks can drive the
// dispatch loop without a socket.
func (s *Server) newServerConn(r *bufio.Reader, w *bufio.Writer) *serverConn {
	return &serverConn{
		store:     s.store,
		m:         s.m,
		r:         r,
		w:         w,
		fields:    make([][]byte, 0, 8),
		subFields: make([][]byte, 0, 8),
		num:       make([]byte, 0, 24),
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.m.ConnsOpened.Inc()
	s.m.ActiveConns.Add(1)
	defer s.m.ActiveConns.Add(-1)
	c := s.newServerConn(bufio.NewReaderSize(conn, connBufBytes), bufio.NewWriterSize(conn, connBufBytes))
	c.conn = conn
	c.ioTimeout = s.IOTimeout
	for {
		if !c.serveOne() {
			return
		}
	}
}

// armDeadline starts the per-request I/O clock: every read and write until
// clearDeadline must finish within ioTimeout, so a peer that stalls
// mid-request (half-sent payload, unread response) cannot pin this
// goroutine and its buffers forever.
func (c *serverConn) armDeadline() {
	if c.conn == nil || c.ioTimeout <= 0 {
		return
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.ioTimeout))
}

// clearDeadline returns the connection to deadline-free idling between
// requests.
func (c *serverConn) clearDeadline() {
	if c.conn == nil || c.ioTimeout <= 0 {
		return
	}
	_ = c.conn.SetDeadline(time.Time{})
}

// serveOne processes one command; reports whether the connection lives on.
func (c *serverConn) serveOne() bool {
	line, err := c.readLine()
	if err != nil {
		return false
	}
	if len(line) == 0 {
		return true
	}
	c.armDeadline()
	defer c.clearDeadline()
	fields := splitFields(line, c.fields[:0])
	c.fields = fields[:0] // keep a grown header buffer for reuse
	if len(fields) == 0 {
		// Whitespace-only line: non-empty, so it wasn't skipped above, but
		// it splits to zero fields. Treat like an empty line.
		return true
	}
	// Classify before dispatch: set/add/cas read their data block mid-dispatch,
	// which refills the bufio buffer and invalidates the field slices.
	kind := classifyCmd(fields[0])
	start := time.Now()
	quit, err := c.dispatch(fields)
	c.m.OpNanos[kind].ObserveSince(start)
	if err != nil {
		c.m.Errors.Inc()
		fmt.Fprintf(c.w, "CLIENT_ERROR %s\r\n", err)
	}
	if err := c.w.Flush(); err != nil || quit {
		return false
	}
	return true
}

// readLine returns the next line with its \r\n trimmed. The returned slice
// points into the reader's buffer (or c.line for oversized lines) and is
// valid until the next read from c.r.
func (c *serverConn) readLine() ([]byte, error) {
	return readProtoLine(c.r, &c.line)
}

// readProtoLine reads one \n-terminated line from r without allocating: the
// returned slice points into r's buffer, or into *scratch when the line
// outgrew it (rare slow path, assembled across ReadSlice calls). Shared by
// the server and client connection loops; valid until the next read from r.
//
//genie:deadlinearmed client callers arm the per-op deadline; the server's idle wait between requests is deliberately unbounded
func readProtoLine(r *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*scratch = append((*scratch)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			*scratch = append(*scratch, line...)
		}
		line = *scratch
	}
	if err != nil {
		return nil, err
	}
	return trimCRLF(line), nil
}

func trimCRLF(line []byte) []byte {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line
}

// splitFields splits line on runs of spaces and tabs into dst (reused
// between calls), the in-place equivalent of strings.Fields.
func splitFields(line []byte, dst [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

// atoi parses a decimal int from b (optionally signed) without allocating.
// Values past int64 range are rejected, not wrapped — a wrapped byte count
// would desync the stream framing (the client's payload would be parsed as
// commands).
func atoi(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > (math.MaxInt64-int64(d))/10 {
			return 0, false // would overflow (MinInt64 itself is rejected too)
		}
		n = n*10 + int64(d)
	}
	if neg {
		n = -n
	}
	return n, true
}

// atou parses a decimal uint64 without allocating; out-of-range values are
// rejected, not wrapped.
func atou(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}

// writeInt / writeUint append a number to the response without fmt. The
// bytes land in the bufio buffer; serveOne's armed deadline bounds the
// flush.
//
//genie:deadlinearmed serveOne arms the per-request deadline before dispatch
func (c *serverConn) writeInt(n int64) {
	c.num = strconv.AppendInt(c.num[:0], n, 10)
	c.w.Write(c.num)
}

//genie:deadlinearmed serveOne arms the per-request deadline before dispatch
func (c *serverConn) writeUint(n uint64) {
	c.num = strconv.AppendUint(c.num[:0], n, 10)
	c.w.Write(c.num)
}

// readData consumes a data block of n bytes plus its \r\n terminator into
// the connection's reusable value buffer.
//
//genie:deadlinearmed serveOne arms the per-request deadline before dispatch
func (c *serverConn) readData(n int) ([]byte, error) {
	need := n + 2
	if cap(c.val) < need {
		c.val = make([]byte, need)
	}
	buf := c.val[:need]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, errors.New("bad data chunk terminator")
	}
	if cap(c.val) > retainedValueBuf {
		c.val = nil // don't pin a near-limit buffer on an idle connection
	}
	return buf[:n], nil
}

// dispatch executes one parsed command, writing its response into the
// buffered writer. Cold error branches use fmt/errors by design; the per-op
// hot branches stay allocation-free (measured by the -benchmem CI gate).
//
//genie:deadlinearmed serveOne arms the per-request deadline before dispatch
func (c *serverConn) dispatch(fields [][]byte) (quit bool, err error) {
	w := c.w
	// The switch converts the command bytes without allocating
	// (compiler-recognized pattern).
	switch string(fields[0]) {
	case "quit":
		return true, nil
	case "get", "gets":
		if len(fields) < 2 {
			return false, errors.New("get needs a key")
		}
		withCas := len(fields[0]) == 4 // "gets" vs "get"
		for _, key := range fields[1:] {
			var cas uint64
			var ok bool
			c.scratch, cas, ok = c.store.GetsAppendB(c.scratch[:0], key)
			if !ok {
				continue
			}
			val := c.scratch
			w.WriteString("VALUE ")
			w.Write(key)
			w.WriteString(" 0 ")
			c.writeInt(int64(len(val)))
			if withCas {
				w.WriteByte(' ')
				c.writeUint(cas)
			}
			w.WriteString("\r\n")
			w.Write(val)
			w.WriteString("\r\n")
		}
		w.WriteString("END\r\n")
		if cap(c.scratch) > retainedValueBuf {
			c.scratch = nil // as with c.val, don't pin a huge one-off value
		}
		return false, nil
	case "set", "add", "cas":
		isCas := fields[0][0] == 'c'
		want := 5
		if isCas {
			want = 6
		}
		if len(fields) != want {
			return false, fmt.Errorf("%s needs %d fields", fields[0], want)
		}
		expSecs, ok := atoi(fields[3])
		if !ok {
			return false, errors.New("bad exptime")
		}
		n, ok := atoi(fields[4])
		if !ok || n < 0 {
			return false, errors.New("bad byte count")
		}
		if n > maxValueBytes {
			// Drain the announced data block so the stream stays framed,
			// then refuse; the connection (and server) live on.
			if _, err := io.CopyN(io.Discard, c.r, n+2); err != nil {
				return false, err
			}
			return false, fmt.Errorf("object too large (%d > %d bytes)", n, maxValueBytes)
		}
		var casID uint64
		var casOK bool
		if isCas {
			casID, casOK = atou(fields[5])
		}
		op := fields[0][0] // 's' | 'a' | 'c'
		// The data-block read refills the bufio buffer and invalidates the
		// field slices; the key must survive it.
		c.key = append(c.key[:0], fields[1]...)
		data, err := c.readData(int(n))
		if err != nil {
			return false, err
		}
		if isCas && !casOK {
			// Refused only AFTER the announced data block is consumed: an
			// early return would leave the payload in the stream to be
			// executed as top-level commands.
			return false, errors.New("bad cas id")
		}
		ttl := time.Duration(expSecs) * time.Second
		if expSecs < 0 {
			// Memcached treats a negative exptime as already expired: the
			// store replies STORED but the entry is never retrievable. The
			// kvcache store treats ttl <= 0 as immortal, so translate to the
			// smallest positive ttl — expired by the time anyone reads it.
			ttl = time.Nanosecond
		}
		switch op {
		case 's':
			c.store.SetB(c.key, data, ttl)
			w.WriteString("STORED\r\n")
		case 'a':
			if c.store.AddB(c.key, data, ttl) {
				w.WriteString("STORED\r\n")
			} else {
				w.WriteString("NOT_STORED\r\n")
			}
		default:
			switch c.store.CasB(c.key, data, ttl, casID) {
			case kvcache.CasStored:
				w.WriteString("STORED\r\n")
			case kvcache.CasConflict:
				w.WriteString("EXISTS\r\n")
			case kvcache.CasNotFound:
				w.WriteString("NOT_FOUND\r\n")
			}
		}
		return false, nil
	case "delete":
		if len(fields) != 2 {
			return false, errors.New("delete needs a key")
		}
		if c.store.DeleteB(fields[1]) {
			w.WriteString("DELETED\r\n")
		} else {
			w.WriteString("NOT_FOUND\r\n")
		}
		return false, nil
	case "incr":
		if len(fields) != 3 {
			return false, errors.New("incr needs key and delta")
		}
		delta, ok := atoi(fields[2])
		if !ok {
			return false, errors.New("bad delta")
		}
		n, found := c.store.IncrB(fields[1], delta)
		if !found {
			w.WriteString("NOT_FOUND\r\n")
		} else {
			c.writeInt(n)
			w.WriteString("\r\n")
		}
		return false, nil
	case "mop":
		// Every mop-context error closes the connection (quit=true): the
		// client pipelines the whole batch in one flush, so after any abort
		// the unread sub-commands are already in the stream and would be
		// executed as top-level commands if the connection lived on.
		if len(fields) != 2 {
			return true, errors.New("mop needs a count")
		}
		count, ok := atoi(fields[1])
		if !ok || count < 0 {
			return true, errors.New("bad mop count")
		}
		if count > maxMopOps {
			return true, fmt.Errorf("mop count %d exceeds limit %d", count, maxMopOps)
		}
		for i := int64(0); i < count; i++ {
			line, err := c.readLine()
			if err != nil {
				return true, err
			}
			sub := splitFields(line, c.subFields[:0])
			c.subFields = sub[:0]
			if len(sub) == 0 {
				return true, errors.New("empty mop sub-command")
			}
			switch string(sub[0]) {
			case "gets", "set", "add", "cas", "delete", "incr":
				// One standard reply each; errors abort the batch AND the
				// connection: the batch arrives as one pipelined flush, so
				// after an abort the remaining sub-commands are already in
				// the stream and indistinguishable from fresh top-level
				// commands — executing them would apply ops from a batch the
				// client was told failed. The client discards its end too.
				if _, err := c.dispatch(sub); err != nil {
					return true, err
				}
			default:
				return true, fmt.Errorf("command %q not allowed in mop", sub[0])
			}
		}
		w.WriteString("END\r\n")
		return false, nil
	case "flush_all":
		c.store.FlushAll()
		w.WriteString("OK\r\n")
		return false, nil
	case "keys":
		// Key enumeration for cluster handoff: one KEY line per live key,
		// END-terminated like a get. Not a memcached command — memcached
		// deliberately refuses key walks on production paths; here the
		// consumer is the membership-change handoff pass, which is itself an
		// O(keys) maintenance operation.
		for _, k := range c.store.Keys() {
			w.WriteString("KEY ")
			w.WriteString(k)
			w.WriteString("\r\n")
		}
		w.WriteString("END\r\n")
		return false, nil
	case "stats":
		st := c.store.Stats()
		fmt.Fprintf(w, "STAT get_hits %d\r\n", st.Hits)
		fmt.Fprintf(w, "STAT get_misses %d\r\n", st.Misses)
		fmt.Fprintf(w, "STAT cmd_set %d\r\n", st.Sets)
		fmt.Fprintf(w, "STAT evictions %d\r\n", st.Evictions)
		fmt.Fprintf(w, "STAT curr_items %d\r\n", st.Items)
		fmt.Fprintf(w, "STAT bytes %d\r\n", st.BytesUsed)
		fmt.Fprintf(w, "STAT limit_maxbytes %d\r\n", st.BytesLimit)
		// Extended stats: still 3-field "STAT <name> <int>" lines, so older
		// parsers (and Client.ServerStats) take them in stride while the
		// workload tier recovers the detail kvcache.Stats used to lose over
		// the wire, plus per-op latency summaries from the server histograms.
		fmt.Fprintf(w, "STAT cmd_delete %d\r\n", st.Deletes)
		fmt.Fprintf(w, "STAT expired %d\r\n", st.Expired)
		fmt.Fprintf(w, "STAT cas_conflicts %d\r\n", st.CasConflicts)
		fmt.Fprintf(w, "STAT server_errors %d\r\n", c.m.Errors.Load())
		fmt.Fprintf(w, "STAT conns_opened %d\r\n", c.m.ConnsOpened.Load())
		fmt.Fprintf(w, "STAT active_conns %d\r\n", c.m.ActiveConns.Load())
		for k := opKind(0); k < opKindCount; k++ {
			snap := c.m.OpNanos[k].Snapshot()
			if snap.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "STAT op_%s_count %d\r\n", opNames[k], snap.Count)
			fmt.Fprintf(w, "STAT op_%s_p50_ns %d\r\n", opNames[k], snap.Quantile(0.50))
			fmt.Fprintf(w, "STAT op_%s_p99_ns %d\r\n", opNames[k], snap.Quantile(0.99))
		}
		w.WriteString("END\r\n")
		return false, nil
	}
	return false, fmt.Errorf("unknown command %q", fields[0])
}
