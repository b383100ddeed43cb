package cacheproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"cachegenie/internal/kvcache"
)

// Client speaks the text protocol to one cache server over a single TCP
// connection. It implements kvcache.Cache and is safe for concurrent use
// (operations serialize on the connection).
//
// Requests are assembled into a reusable per-client buffer with
// strconv.Append* and responses are parsed in place from the read buffer,
// so the request path does not allocate; only fetched values do (they are
// returned to the caller and must survive the next operation).
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	addr      string
	opTimeout time.Duration
	broken    bool // an exchange died mid-stream; the framing is gone

	wbuf    []byte   // request build buffer
	line    []byte   // overflow line assembly
	fields  [][]byte // response field headers
	scratch []byte   // a batch's values, read back to back (applyBatch)
}

var _ kvcache.Cache = (*Client)(nil)

// Dial connects to a cache server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects to a cache server and arms every subsequent
// operation with a connection deadline: a round trip that has not completed
// within opTimeout fails with a timeout error instead of blocking forever.
// A node that accepts connections but never answers — wedged process, black-
// holed network — then degrades to misses and feeds the pool's circuit
// breaker rather than pinning the caller. opTimeout 0 disables deadlines.
func DialTimeout(addr string, opTimeout time.Duration) (*Client, error) {
	var conn net.Conn
	var err error
	if opTimeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, opTimeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("cacheproto: dial %s: %w", addr, err)
	}
	return &Client{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, connBufBytes),
		w:         bufio.NewWriterSize(conn, connBufBytes),
		addr:      addr,
		opTimeout: opTimeout,
		fields:    make([][]byte, 0, 8),
	}, nil
}

// Addr returns the server address this client is connected to.
func (c *Client) Addr() string { return c.addr }

// Close closes the connection, sending a best-effort quit first so the
// server tears down cleanly; the op deadline bounds the farewell too.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.broken {
		c.armDeadline()
		_, _ = c.w.WriteString("quit\r\n")
		_ = c.w.Flush()
	}
	return c.conn.Close()
}

// armDeadline sets the per-operation connection deadline. Caller holds c.mu.
func (c *Client) armDeadline() {
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	}
}

var errClientBroken = errors.New("cacheproto: connection broken by an earlier failed exchange")

// fail poisons the connection after an exchange died mid-stream (I/O error,
// timeout, unparseable response): the framing is gone, so a later operation
// could read the dead exchange's late-arriving bytes as its own response —
// a timed-out Get's value coming back as a HIT for a different key. Every
// subsequent operation fails fast instead. The Pool never needs this (it
// discards errored conns), but a bare Client must degrade to misses, never
// to wrong answers. Caller holds c.mu; the error passes through.
func (c *Client) fail(err error) error {
	if err != nil && !c.broken {
		c.broken = true
		_ = c.conn.Close()
	}
	return err
}

func ttlSeconds(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	secs := int64(ttl / time.Second)
	if secs == 0 {
		secs = 1
	}
	return secs
}

// readLine returns the next response line with \r\n trimmed. The slice
// points into the read buffer (or c.line) and is valid until the next read.
//
//genie:deadlinearmed every caller arms the per-op deadline before the exchange
func (c *Client) readLine() ([]byte, error) {
	return readProtoLine(c.r, &c.line)
}

// cmd starts a fresh request in the build buffer.
func (c *Client) cmd() []byte { return c.wbuf[:0] }

// sendLine writes the built command line and flushes. Caller holds c.mu.
//
//genie:deadlinearmed every caller arms the per-op deadline before the exchange
func (c *Client) sendLine(b []byte) error {
	b = append(b, '\r', '\n')
	c.wbuf = b
	c.w.Write(b)
	return c.w.Flush()
}

// readValue parses one get/gets reply: VALUE blocks up to the closing END
// (none on a miss). The value is appended to dst, which comes back with it.
// Caller holds c.mu and has sent the request; any error has already poisoned
// the connection.
//
//genie:deadlinearmed every caller arms the per-op deadline before the exchange
func (c *Client) readValue(dst []byte) (val []byte, cas uint64, found bool, err error) {
	start := len(dst)
	for {
		line, err := c.readLine()
		if err != nil {
			return dst, 0, false, c.fail(err)
		}
		if string(line) == "END" {
			return dst, cas, found, nil
		}
		fields := splitFields(line, c.fields[:0])
		c.fields = fields[:0]
		if len(fields) < 4 || string(fields[0]) != "VALUE" {
			return dst, 0, false, c.fail(fmt.Errorf("cacheproto: bad response line %q", line))
		}
		n, ok := atoi(fields[3])
		if !ok || n < 0 {
			return dst, 0, false, c.fail(fmt.Errorf("cacheproto: bad length in %q", line))
		}
		if len(fields) >= 5 {
			cas, ok = atou(fields[4])
			if !ok {
				return dst, 0, false, c.fail(fmt.Errorf("cacheproto: bad cas in %q", line))
			}
		}
		if dst, err = c.readData(dst[:start], int(n)); err != nil {
			return dst, 0, false, c.fail(err)
		}
		found = true
	}
}

// readData appends an n-byte data block to dst and consumes its \r\n
// terminator. A batch's values are read this way into the connection's
// scratch, back to back, before one slab takes them all (cutSlab).
//
//genie:deadlinearmed every caller arms the per-op deadline before the exchange
func (c *Client) readData(dst []byte, n int) ([]byte, error) {
	dst = slices.Grow(dst, n+2)
	if _, err := io.ReadFull(c.r, dst[len(dst):len(dst)+n+2]); err != nil {
		return dst, err
	}
	return dst[:len(dst)+n], nil
}

// appendStoreCmd builds "<verb> <key> 0 <exptime> <bytes>"; a cas appends
// its token.
func (c *Client) appendStoreCmd(b []byte, verb, key string, ttl time.Duration, size int) []byte {
	b = append(b, verb...)
	b = append(b, ' ')
	b = append(b, key...)
	b = append(b, " 0 "...)
	b = strconv.AppendInt(b, ttlSeconds(ttl), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(size), 10)
	return b
}

// parseCasReply maps a cas reply line to its outcome; anything but STORED
// and EXISTS (NOT_FOUND, a refusal) reads as not found.
func parseCasReply(line []byte) kvcache.CasResult {
	switch string(line) {
	case "STORED":
		return kvcache.CasStored
	case "EXISTS":
		return kvcache.CasConflict
	}
	return kvcache.CasNotFound
}

// Every per-op method below is one call to one: a one-op mop exchange through
// applyBatch, so it gets the batch path's key and size checks and its
// one-slab value read. Network errors surface as misses; callers fall back to
// the database, which is the correct degraded behaviour.

// one runs op as a one-op batch with its op and result on the stack.
func (c *Client) one(op kvcache.BatchOp) kvcache.BatchResult {
	ops, out := [1]kvcache.BatchOp{op}, [1]kvcache.BatchResult{}
	_ = c.applyBatch(ops[:], out[:])
	return out[0]
}

// Get implements kvcache.Cache.
func (c *Client) Get(key string) ([]byte, bool) {
	r := c.one(kvcache.BatchOp{Kind: kvcache.BatchGet, Key: key})
	return r.Data, r.Found
}

// Gets implements kvcache.Cache.
func (c *Client) Gets(key string) ([]byte, uint64, bool) {
	r := c.one(kvcache.BatchOp{Kind: kvcache.BatchGets, Key: key})
	return r.Data, r.Cas, r.Found
}

// Set implements kvcache.Cache.
func (c *Client) Set(key string, value []byte, ttl time.Duration) {
	c.one(kvcache.BatchOp{Kind: kvcache.BatchSet, Key: key, Value: value, TTL: ttl})
}

// Add implements kvcache.Cache.
func (c *Client) Add(key string, value []byte, ttl time.Duration) bool {
	return c.one(kvcache.BatchOp{Kind: kvcache.BatchAdd, Key: key, Value: value, TTL: ttl}).Found
}

// Cas implements kvcache.Cache.
func (c *Client) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	return c.one(kvcache.BatchOp{Kind: kvcache.BatchCas, Key: key, Value: value, TTL: ttl, Cas: cas}).CasResult
}

// Delete implements kvcache.Cache.
func (c *Client) Delete(key string) bool {
	return c.one(kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: key}).Found
}

// Incr implements kvcache.Cache.
func (c *Client) Incr(key string, delta int64) (int64, bool) {
	r := c.one(kvcache.BatchOp{Kind: kvcache.BatchIncr, Key: key, Delta: delta})
	return r.Value, r.Found
}

// flushAll is FlushAll with the connection error exposed (for the Pool).
func (c *Client) flushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return errClientBroken
	}
	c.armDeadline()
	if err := c.sendLine(append(c.cmd(), "flush_all"...)); err != nil {
		return c.fail(err)
	}
	_, err := c.readLine()
	return c.fail(err)
}

// FlushAll implements kvcache.Cache.
func (c *Client) FlushAll() {
	_ = c.flushAll()
}

// ApplyBatch implements kvcache.Cache over the pipelined mop command:
// every op in the batch is written in one flush and all results are read
// back together, so the batch costs a single network round trip instead of
// one per op. Network errors surface as failAll's results (not-found /
// not-stored).
func (c *Client) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	out := make([]kvcache.BatchResult, len(ops))
	_ = c.applyBatch(ops, out)
	return out
}

// applyBatch runs ops as one mop exchange and writes their results into out
// (len(out) == len(ops)), which the caller supplies so that a one-op batch
// allocates neither slice. It returns the connection error, so the Pool can
// discard a conn whose exchange broke mid-stream.
//
// Ops the server is guaranteed to refuse (a key the text protocol cannot
// express, a value over its size cap) are skipped client-side — their result
// stays the failed one — instead of being pipelined: the server answers them
// by aborting the whole batch, which would throw away every other op flushed
// with it (a write-set flush carries every key of a statement, or of a whole
// bus window, in one mop; one bad write must not cancel the others).
//
// The values the batch reads arrive in the connection's scratch, back to back,
// and are handed out as capped windows of one slab of exactly their size: one
// allocation for the batch's values, however many there are.
func (c *Client) applyBatch(ops []kvcache.BatchOp, out []kvcache.BatchResult) error {
	failAll(ops, out)
	send := 0
	for i := range ops {
		if sendable(&ops[i]) {
			send++
		}
	}
	if send == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return errClientBroken
	}
	c.armDeadline()
	b := append(c.cmd(), "mop "...)
	b = strconv.AppendInt(b, int64(send), 10)
	b = append(b, '\r', '\n')
	c.w.Write(b)
	for i := range ops {
		if sendable(&ops[i]) {
			c.writeSubCommand(&ops[i])
		}
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	scratch := c.scratch[:0]
	for i := range ops {
		if !sendable(&ops[i]) {
			continue
		}
		if k := ops[i].Kind; k == kvcache.BatchGets || k == kvcache.BatchGet {
			from := len(scratch)
			var cas uint64
			var found bool
			var err error
			if scratch, cas, found, err = c.readValue(scratch); err != nil {
				return err
			}
			if found {
				// Value holds where the value starts in the scratch until
				// cutSlab hands it out.
				out[i] = kvcache.BatchResult{Found: true, Value: int64(from), Data: scratch[from:]}
				if k == kvcache.BatchGets {
					out[i].Cas = cas
				}
			}
			continue
		}
		line, err := c.readLine()
		if err != nil {
			return c.fail(err)
		}
		if isErrorLine(line) {
			// The server aborted the batch: it sent this error line instead
			// of the remaining results and the trailing END, so the stream is
			// unframed from here. Surface an error so the Pool discards the
			// connection rather than parsing the error as an op result (a
			// delete would read it as not-found) and then hanging on END.
			return c.fail(fmt.Errorf("cacheproto: mop aborted at op %d: %s", i, line))
		}
		switch ops[i].Kind {
		case kvcache.BatchSet, kvcache.BatchAdd:
			out[i].Found = string(line) == "STORED"
		case kvcache.BatchCas:
			r := parseCasReply(line)
			out[i] = kvcache.BatchResult{Found: r == kvcache.CasStored, CasResult: r}
		case kvcache.BatchIncr:
			if n, ok := atoi(line); ok {
				out[i] = kvcache.BatchResult{Found: true, Value: n}
			}
		default:
			out[i].Found = string(line) == "DELETED"
		}
	}
	// Trailing END frames the batch response.
	line, err := c.readLine()
	if err != nil {
		return c.fail(err)
	}
	if string(line) != "END" {
		return c.fail(fmt.Errorf("cacheproto: mop response unframed: %q", line))
	}
	cutSlab(ops, out, scratch)
	if cap(scratch) <= retainedScratch {
		c.scratch = scratch[:0]
	}
	return nil
}

// retainedScratch caps the batch scratch a connection keeps between
// exchanges: room for a read wave's values from one node, so the common batch
// reuses it, while an idle pooled connection never pins a rare large batch's.
const retainedScratch = 4 << 10

// failAll sets out to the results of a batch that never reached the cache:
// every op reads as a miss, and a BatchCas as CasNotFound — not the zero
// CasResult, which is CasStored. Batch appliers start from it so an op they
// skip or lose reads as a miss, the way the per-op methods degrade.
func failAll(ops []kvcache.BatchOp, out []kvcache.BatchResult) {
	for i := range ops {
		out[i] = kvcache.BatchResult{}
		if ops[i].Kind == kvcache.BatchCas {
			out[i].CasResult = kvcache.CasNotFound
		}
	}
}

// sendable reports whether a batch op can be pipelined: its key is
// expressible on the wire and its value within the server's cap.
func sendable(op *kvcache.BatchOp) bool {
	return validKey(op.Key) && len(op.Value) <= maxValueBytes
}

// cutSlab copies the values a batch read into scratch into one slab of their
// exact size and points each hit's Data at its own capped window of it, so an
// append to one value never reaches the next. out[i].Value holds where hit i's
// value starts in scratch and len(out[i].Data) its length.
func cutSlab(ops []kvcache.BatchOp, out []kvcache.BatchResult, scratch []byte) {
	slab := make([]byte, len(scratch))
	copy(slab, scratch)
	for i := range out {
		if k := ops[i].Kind; out[i].Found && (k == kvcache.BatchGets || k == kvcache.BatchGet) {
			from := int(out[i].Value)
			to := from + len(out[i].Data)
			out[i].Data, out[i].Value = slab[from:to:to], 0
		}
	}
}

// writeSubCommand appends one mop sub-command, data block included, to the
// write buffer. Caller holds c.mu; write errors surface on the batch's Flush.
//
//genie:deadlinearmed applyBatch arms the per-op deadline before the exchange
func (c *Client) writeSubCommand(op *kvcache.BatchOp) {
	b := c.cmd()
	hasData := false
	switch op.Kind {
	case kvcache.BatchSet:
		b, hasData = c.appendStoreCmd(b, "set", op.Key, op.TTL, len(op.Value)), true
	case kvcache.BatchAdd:
		b, hasData = c.appendStoreCmd(b, "add", op.Key, op.TTL, len(op.Value)), true
	case kvcache.BatchCas:
		b, hasData = c.appendStoreCmd(b, "cas", op.Key, op.TTL, len(op.Value)), true
		b = strconv.AppendUint(append(b, ' '), op.Cas, 10)
	case kvcache.BatchGets, kvcache.BatchGet:
		// mop carries no plain get; a BatchGet's token is dropped on receipt.
		b = append(append(b, "gets "...), op.Key...)
	case kvcache.BatchIncr:
		b = append(append(b, "incr "...), op.Key...)
		b = strconv.AppendInt(append(b, ' '), op.Delta, 10)
	default:
		b = append(append(b, "delete "...), op.Key...)
	}
	b = append(b, '\r', '\n')
	c.wbuf = b
	c.w.Write(b)
	if hasData {
		c.w.Write(op.Value)
		c.w.WriteString("\r\n")
	}
}

// Error-reply prefixes, hoisted so response classification on the hot path
// never re-materializes them as fresh slices.
var (
	clientErrorPrefix = []byte("CLIENT_ERROR")
	serverErrorPrefix = []byte("SERVER_ERROR")
)

// isErrorLine reports whether a response line is one of the protocol's error
// replies (memcached's ERROR / CLIENT_ERROR msg / SERVER_ERROR msg), which
// can replace a result line mid-batch when the server aborts.
func isErrorLine(line []byte) bool {
	return string(line) == "ERROR" ||
		bytes.HasPrefix(line, clientErrorPrefix) ||
		bytes.HasPrefix(line, serverErrorPrefix)
}

// maxKeyBytes is memcached's classic key-length bound.
const maxKeyBytes = 250

// validKey reports whether key is expressible in the text protocol:
// non-empty, bounded, and free of whitespace and control characters
// (memcached's key rules). A key that fails this would split into extra
// protocol fields on the wire and make the server abort the exchange.
func validKey(key string) bool {
	if key == "" || len(key) > maxKeyBytes {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// Keys fetches the server's live key list (the keys command). The cluster
// membership-change handoff uses it to find the remapped key share on a
// prior owner; like that pass itself it is O(keys) and not a hot-path call.
func (c *Client) Keys() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, errClientBroken
	}
	c.armDeadline()
	if err := c.sendLine(append(c.cmd(), "keys"...)); err != nil {
		return nil, c.fail(err)
	}
	var out []string
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, c.fail(err)
		}
		if string(line) == "END" {
			return out, nil
		}
		if len(line) < 5 || string(line[:4]) != "KEY " {
			return nil, c.fail(errors.New("cacheproto: bad keys line " + string(line)))
		}
		out = append(out, string(line[4:]))
	}
}

// ServerStats fetches the server's counters.
func (c *Client) ServerStats() (map[string]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, errClientBroken
	}
	c.armDeadline()
	if err := c.sendLine(append(c.cmd(), "stats"...)); err != nil {
		return nil, c.fail(err)
	}
	out := map[string]int64{}
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, c.fail(err)
		}
		if string(line) == "END" {
			return out, nil
		}
		fields := splitFields(line, c.fields[:0])
		c.fields = fields[:0]
		if len(fields) != 3 || string(fields[0]) != "STAT" {
			return nil, c.fail(errors.New("cacheproto: bad stats line " + string(line)))
		}
		n, ok := atoi(fields[2])
		if !ok {
			return nil, c.fail(fmt.Errorf("cacheproto: bad stats value %q", line))
		}
		out[string(fields[1])] = n
	}
}
