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
//
//genie:hotpath
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

//genie:hotpath
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
//
//genie:hotpath
func (c *Client) cmd() []byte { return c.wbuf[:0] }

// sendLine writes the built command line (plus optional data block) and
// flushes. Caller holds c.mu. Intermediate write errors surface as bufio's
// sticky error on the final Flush.
//
//genie:deadlinearmed every caller arms the per-op deadline before the exchange
//genie:hotpath
func (c *Client) sendLine(b []byte, data []byte) error {
	b = append(b, '\r', '\n')
	c.wbuf = b
	c.w.Write(b)
	if data != nil {
		c.w.Write(data)
		c.w.WriteString("\r\n")
	}
	return c.w.Flush()
}

// roundTrip sends the built command and returns the first response line.
// Caller holds c.mu; the returned slice is valid until the next read.
//
//genie:hotpath
func (c *Client) roundTrip(b []byte, data []byte) ([]byte, error) {
	if c.broken {
		return nil, errClientBroken
	}
	c.armDeadline()
	if err := c.sendLine(b, data); err != nil {
		return nil, c.fail(err)
	}
	line, err := c.readLine()
	if err != nil {
		return nil, c.fail(err)
	}
	return line, nil
}

// fetch runs get/gets and parses VALUE blocks. It takes c.mu itself —
// callers must NOT hold it.
func (c *Client) fetch(withCas bool, key string) (val []byte, cas uint64, found bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, 0, false, errClientBroken
	}
	c.armDeadline()
	b := c.cmd()
	if withCas {
		b = append(b, "gets "...)
	} else {
		b = append(b, "get "...)
	}
	b = append(b, key...)
	if err := c.sendLine(b, nil); err != nil {
		return nil, 0, false, c.fail(err)
	}
	return c.readValue(nil)
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
//genie:hotpath
func (c *Client) readData(dst []byte, n int) ([]byte, error) {
	dst = slices.Grow(dst, n+2)
	if _, err := io.ReadFull(c.r, dst[len(dst):len(dst)+n+2]); err != nil {
		return dst, err
	}
	return dst[:len(dst)+n], nil
}

// Get implements kvcache.Cache. Network errors surface as misses; callers
// fall back to the database, which is the correct degraded behaviour.
func (c *Client) Get(key string) ([]byte, bool) {
	v, _, ok, err := c.fetch(false, key)
	if err != nil {
		return nil, false
	}
	return v, ok
}

// Gets implements kvcache.Cache.
func (c *Client) Gets(key string) ([]byte, uint64, bool) {
	v, cas, ok, err := c.fetch(true, key)
	if err != nil {
		return nil, 0, false
	}
	return v, cas, ok
}

// appendStoreCmd builds "<verb> <key> 0 <exptime> <bytes>[ <cas>]".
//
//genie:hotpath
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

// set is Set with the connection error exposed (for the Pool).
//
//genie:hotpath
func (c *Client) set(key string, value []byte, ttl time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTrip(c.appendStoreCmd(c.cmd(), "set", key, ttl, len(value)), value)
	return err
}

// Set implements kvcache.Cache.
func (c *Client) Set(key string, value []byte, ttl time.Duration) {
	_ = c.set(key, value, ttl)
}

// add is Add with the connection error exposed (for the Pool).
//
//genie:hotpath
func (c *Client) add(key string, value []byte, ttl time.Duration) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.roundTrip(c.appendStoreCmd(c.cmd(), "add", key, ttl, len(value)), value)
	return err == nil && string(line) == "STORED", err
}

// Add implements kvcache.Cache.
func (c *Client) Add(key string, value []byte, ttl time.Duration) bool {
	ok, _ := c.add(key, value, ttl)
	return ok
}

// cas is Cas with the connection error exposed (for the Pool).
func (c *Client) cas(key string, value []byte, ttl time.Duration, cas uint64) (kvcache.CasResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.roundTrip(c.appendCasCmd(c.cmd(), key, ttl, len(value), cas), value)
	if err != nil {
		return kvcache.CasNotFound, err
	}
	return parseCasReply(line), nil
}

// appendCasCmd builds "cas <key> 0 <exptime> <bytes> <cas>".
//
//genie:hotpath
func (c *Client) appendCasCmd(b []byte, key string, ttl time.Duration, size int, cas uint64) []byte {
	b = c.appendStoreCmd(b, "cas", key, ttl, size)
	b = append(b, ' ')
	return strconv.AppendUint(b, cas, 10)
}

// parseCasReply maps a cas reply line to its outcome; anything but STORED
// and EXISTS (NOT_FOUND, a refusal) reads as not found.
//
//genie:hotpath
func parseCasReply(line []byte) kvcache.CasResult {
	switch string(line) {
	case "STORED":
		return kvcache.CasStored
	case "EXISTS":
		return kvcache.CasConflict
	}
	return kvcache.CasNotFound
}

// Cas implements kvcache.Cache.
func (c *Client) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	r, _ := c.cas(key, value, ttl, cas)
	return r
}

// del is Delete with the connection error exposed (for the Pool).
//
//genie:hotpath
func (c *Client) del(key string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := append(c.cmd(), "delete "...)
	b = append(b, key...)
	line, err := c.roundTrip(b, nil)
	return err == nil && string(line) == "DELETED", err
}

// Delete implements kvcache.Cache.
func (c *Client) Delete(key string) bool {
	ok, _ := c.del(key)
	return ok
}

// incr is Incr with the connection error exposed (for the Pool).
//
//genie:hotpath
func (c *Client) incr(key string, delta int64) (int64, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := append(c.cmd(), "incr "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, delta, 10)
	line, err := c.roundTrip(b, nil)
	if err != nil {
		return 0, false, err
	}
	if string(line) == "NOT_FOUND" || bytes.HasPrefix(line, clientErrorPrefix) {
		return 0, false, nil
	}
	n, ok := atoi(line)
	if !ok {
		return 0, false, nil
	}
	return n, true, nil
}

// Incr implements kvcache.Cache.
func (c *Client) Incr(key string, delta int64) (int64, bool) {
	n, ok, _ := c.incr(key, delta)
	return n, ok
}

// flushAll is FlushAll with the connection error exposed (for the Pool).
func (c *Client) flushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTrip(append(c.cmd(), "flush_all"...), nil)
	return err
}

// FlushAll implements kvcache.Cache.
func (c *Client) FlushAll() {
	_ = c.flushAll()
}

// ApplyBatch implements kvcache.Cache over the pipelined mop command:
// every op in the batch is written in one flush and all results are read
// back together, so the batch costs a single network round trip instead of
// one per op. Network errors surface as kvcache.FailedBatch results
// (not-found / not-stored), mirroring the per-op methods' degraded behaviour.
func (c *Client) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	out, _ := c.applyBatch(ops)
	return out
}

// applyBatch is ApplyBatch with the connection error exposed, so the Pool
// can discard a conn whose mop exchange broke mid-stream.
//
// Ops the server is guaranteed to refuse (a value over its size cap) are
// skipped client-side — their result stays the failed one — instead of being
// pipelined: the server answers an oversized set or cas by aborting the whole
// batch, which would throw away every other op flushed with it (a write-set
// flush carries every key of a statement, or of a whole bus window, in one
// mop; one bad write must not cancel the others).
//
// The values the batch reads arrive in the connection's scratch, back to back,
// and are handed out as capped windows of one slab of exactly their size: one
// allocation for the batch's values, however many there are.
func (c *Client) applyBatch(ops []kvcache.BatchOp) ([]kvcache.BatchResult, error) {
	out := kvcache.FailedBatch(ops)
	send := 0
	for i := range ops {
		if sendable(&ops[i]) {
			send++
		}
	}
	if send == 0 {
		return out, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return out, errClientBroken
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
		return out, c.fail(err)
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
				return out, err
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
			return out, c.fail(err)
		}
		if isErrorLine(line) {
			// The server aborted the batch: it sent this error line instead
			// of the remaining results and the trailing END, so the stream is
			// unframed from here. Surface an error so the Pool discards the
			// connection rather than parsing the error as an op result (a
			// delete would read it as not-found) and then hanging on END.
			return out, c.fail(fmt.Errorf("cacheproto: mop aborted at op %d: %s", i, line))
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
		return out, c.fail(err)
	}
	if string(line) != "END" {
		return out, c.fail(fmt.Errorf("cacheproto: mop response unframed: %q", line))
	}
	cutSlab(ops, out, scratch)
	if cap(scratch) <= retainedScratch {
		c.scratch = scratch[:0]
	}
	return out, nil
}

// retainedScratch caps the batch scratch a connection keeps between
// exchanges: room for a read wave's values from one node, so the common batch
// reuses it, while an idle pooled connection never pins a rare large batch's.
const retainedScratch = 4 << 10

// sendable reports whether a batch op can be pipelined: its key is
// expressible on the wire and its value within the server's cap.
func sendable(op *kvcache.BatchOp) bool {
	return validKey(op.Key) && len(op.Value) <= maxValueBytes
}

// cutSlab copies the values a batch read into scratch into one slab of their
// exact size and points each hit's Data at its own capped window of it, so an
// append to one value never reaches the next. out[i].Value holds where hit i's
// value starts in scratch and len(out[i].Data) its length.
//
//genie:hotpath
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
//genie:hotpath
func (c *Client) writeSubCommand(op *kvcache.BatchOp) {
	b := c.cmd()
	hasData := false
	switch op.Kind {
	case kvcache.BatchSet:
		b, hasData = c.appendStoreCmd(b, "set", op.Key, op.TTL, len(op.Value)), true
	case kvcache.BatchAdd:
		b, hasData = c.appendStoreCmd(b, "add", op.Key, op.TTL, len(op.Value)), true
	case kvcache.BatchCas:
		b, hasData = c.appendCasCmd(b, op.Key, op.TTL, len(op.Value), op.Cas), true
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
//
//genie:hotpath
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
	if err := c.sendLine(append(c.cmd(), "keys"...), nil); err != nil {
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
	if err := c.sendLine(append(c.cmd(), "stats"...), nil); err != nil {
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
