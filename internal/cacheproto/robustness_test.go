package cacheproto

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
)

// rawServer starts a server and returns its address plus a dialer for raw
// protocol conversations.
func rawServer(t *testing.T) (string, *kvcache.Store) {
	t.Helper()
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, store
}

func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

// TestServerMalformedInput feeds the server protocol garbage and verifies
// each case errors without killing the connection's framing (where
// recoverable) or the accept loop (always): after every case a fresh,
// well-formed client still gets service.
func TestServerMalformedInput(t *testing.T) {
	addr, _ := rawServer(t)
	cases := []struct {
		name string
		send string
		// wantPrefix is matched against the first response line. Empty
		// means the server may simply drop the connection (e.g. a
		// truncated stream has no recoverable framing).
		wantPrefix string
		// followUp, when set, is sent on the same connection after the bad
		// command to prove the stream stayed framed.
		followUp       string
		wantFollowUpOK bool
	}{
		{
			name:       "bad opcode",
			send:       "frobnicate key\r\n",
			wantPrefix: "CLIENT_ERROR",
			followUp:   "set ok1 0 0 2\r\nhi\r\n", wantFollowUpOK: true,
		},
		{
			name:       "oversized value",
			send:       fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", maxValueBytes+1, strings.Repeat("x", maxValueBytes+1)),
			wantPrefix: "CLIENT_ERROR",
			followUp:   "set ok2 0 0 2\r\nhi\r\n", wantFollowUpOK: true,
		},
		{
			name:       "non-numeric byte count",
			send:       "set k 0 0 banana\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "negative byte count",
			send:       "set k 0 0 -5\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "missing fields",
			send:       "set k\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "bad mop count",
			send:       "mop banana\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "absurd mop count",
			send:       fmt.Sprintf("mop %d\r\n", maxMopOps+1),
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "forbidden command inside mop",
			send:       "mop 1\r\nflush_all\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			// Only the write-set's read is batchable; a plain get is not.
			name:       "get inside mop",
			send:       "mop 1\r\nget k\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "keyless gets inside mop",
			send:       "mop 2\r\ngets\r\ndelete k\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			// As at top level the refusal follows the data block, and the
			// aborted batch takes the connection with it: neither the
			// payload nor the rest of the batch may run as commands.
			name:       "bad cas id inside mop",
			send:       "mop 2\r\ncas k 0 0 11 notanumber\r\nflush_all\r\n\r\nflush_all\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name:       "cas missing its token inside mop",
			send:       "mop 1\r\ncas k 0 0 2\r\nhi\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			name: "truncated cas data inside mop",
			send: "mop 1\r\ncas k 0 0 100 7\r\nonly-ten-b",
		},
		{
			name: "truncated mop frame",
			// Announces 3 sub-commands, sends 1, then the stream ends. The
			// server can only give up on this connection.
			send: "mop 3\r\ndelete k\r\n",
		},
		{
			name: "truncated set data",
			send: "set k 0 0 100\r\nonly-ten-b",
		},
		{
			name:       "bad data terminator",
			send:       "set k 0 0 2\r\nhiXX",
			wantPrefix: "CLIENT_ERROR",
		},
		{
			// The refusal must come AFTER the announced data block is
			// consumed; an early return would leave the payload in the
			// stream to run as top-level commands (a payload of
			// "flush_all\r\n" would wipe the store).
			name:       "bad cas id keeps framing",
			send:       "cas k 0 0 11 notanumber\r\nflush_all\r\n\r\n",
			wantPrefix: "CLIENT_ERROR",
			followUp:   "set ok3 0 0 2\r\nhi\r\n", wantFollowUpOK: true,
		},
		{
			name:       "wrapping byte count",
			send:       "set k 0 0 18446744073709551616\r\n",
			wantPrefix: "CLIENT_ERROR",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, r := rawDial(t, addr)
			if _, err := conn.Write([]byte(tc.send)); err != nil {
				t.Fatalf("write: %v", err)
			}
			if tc.wantPrefix != "" {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("no response to %q: %v", tc.send, err)
				}
				if !strings.HasPrefix(line, tc.wantPrefix) {
					t.Fatalf("response %q, want prefix %q", line, tc.wantPrefix)
				}
			} else {
				// Half-close our side so the server's pending read sees EOF
				// rather than a stalled stream.
				if tcp, ok := conn.(*net.TCPConn); ok {
					_ = tcp.CloseWrite()
				}
				_, _ = r.ReadString('\n') // EOF or garbage; either is fine
			}
			if tc.followUp != "" {
				if _, err := conn.Write([]byte(tc.followUp)); err != nil {
					t.Fatalf("follow-up write: %v", err)
				}
				line, err := r.ReadString('\n')
				if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
					if tc.wantFollowUpOK {
						t.Fatalf("connection lost framing: %q, %v", line, err)
					}
				}
			}
			// The accept loop must have survived: a fresh well-formed
			// client still gets full service.
			cli, err := Dial(addr)
			if err != nil {
				t.Fatalf("server stopped accepting after %q: %v", tc.name, err)
			}
			defer cli.Close()
			cli.Set("probe", []byte("alive"), 0)
			if v, ok := cli.Get("probe"); !ok || string(v) != "alive" {
				t.Fatalf("server unhealthy after %q: %q, %v", tc.name, v, ok)
			}
		})
	}
}

// TestMopAbortedByCasRunsNothingAfter pins the abort rule down for the
// sub-command that carries a data block: a cas refused inside a mop closes
// the connection, so neither its payload nor the batch's remaining
// sub-commands (both "flush_all" here) ever execute.
func TestMopAbortedByCasRunsNothingAfter(t *testing.T) {
	addr, store := rawServer(t)
	store.Set("survivor", []byte("v"), 0)
	conn, r := rawDial(t, addr)
	fmt.Fprint(conn, "mop 2\r\ncas k 0 0 11 notanumber\r\nflush_all\r\n\r\nflush_all\r\n")
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("refused cas inside mop: %q, %v", line, err)
	}
	if rest, err := r.ReadString('\n'); err == nil {
		t.Fatalf("connection survived the aborted batch and answered %q", rest)
	}
	if _, ok := store.Get("survivor"); !ok {
		t.Fatal("bytes after the refused cas ran as a command and flushed the store")
	}
}

// TestServerOversizedValueKeepsFraming pins the drain behaviour down: the
// refused value must not be stored, and the same connection keeps working.
func TestServerOversizedValueKeepsFraming(t *testing.T) {
	addr, store := rawServer(t)
	conn, r := rawDial(t, addr)
	big := strings.Repeat("v", maxValueBytes+1)
	fmt.Fprintf(conn, "set big 0 0 %d\r\n%s\r\n", len(big), big)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("oversized set: %q, %v", line, err)
	}
	if _, ok := store.Get("big"); ok {
		t.Fatal("oversized value was stored")
	}
	fmt.Fprintf(conn, "set small 0 0 5\r\nhello\r\n")
	line, err = r.ReadString('\n')
	if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
		t.Fatalf("framing lost after oversized refusal: %q, %v", line, err)
	}
	if v, ok := store.Get("small"); !ok || string(v) != "hello" {
		t.Fatalf("small = %q, %v", v, ok)
	}
}

// TestServerConcurrentClientStress hammers one server from many concurrent
// connections mixing well-formed traffic with protocol garbage; the server
// must neither wedge nor lose well-formed operations.
func TestServerConcurrentClientStress(t *testing.T) {
	addr, store := rawServer(t)
	const goroutines = 12
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%4 == 3 {
				// Saboteur: raw garbage connections.
				for i := 0; i < iters/10; i++ {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Errorf("saboteur dial: %v", err)
						return
					}
					fmt.Fprintf(conn, "mop 99\r\ndelete x\r\n")
					_ = conn.Close()
				}
				return
			}
			cli, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cli.Close()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				cli.Set(k, []byte("v"), 0)
				if _, ok := cli.Get(k); !ok {
					t.Errorf("lost %s", k)
					return
				}
				cli.ApplyBatch([]kvcache.BatchOp{
					{Kind: kvcache.BatchIncr, Key: "missing", Delta: 1},
					{Kind: kvcache.BatchDelete, Key: k},
				})
			}
		}(g)
	}
	wg.Wait()
	// 9 well-behaved goroutines each set+deleted their keys.
	if store.Len() != 0 {
		t.Fatalf("store has %d leftover items", store.Len())
	}
	// Server is still fully serviceable.
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Set("final", []byte("ok"), 0)
	if v, ok := cli.Get("final"); !ok || string(v) != "ok" {
		t.Fatalf("final probe = %q, %v", v, ok)
	}
}

// scriptedServer accepts connections, consumes whatever the client writes,
// and answers each connection with the fixed canned response — a stand-in
// for a buggy, hostile, or version-skewed server whose responses our own
// Server would never produce (the client pre-filters the ops that would
// make the real server abort).
func scriptedServer(t *testing.T, response string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 1<<16)
				if _, err := conn.Read(buf); err != nil {
					return
				}
				_, _ = conn.Write([]byte(response))
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestClientApplyBatchMidBatchError proves a mop batch the server aborts
// mid-stream surfaces as a connection error instead of being misparsed: the
// scripted server answers op 2 with CLIENT_ERROR in place of its result
// line and the trailing END, so treating that line as an ordinary result
// would corrupt every later op and then hang on the missing END.
func TestClientApplyBatchMidBatchError(t *testing.T) {
	addr := scriptedServer(t, "STORED\r\nCLIENT_ERROR boom\r\n")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	ops := []kvcache.BatchOp{
		{Kind: kvcache.BatchSet, Key: "ok", Value: []byte("fine")},
		{Kind: kvcache.BatchDelete, Key: "victim"},
		{Kind: kvcache.BatchDelete, Key: "other"},
	}
	res := make([]kvcache.BatchResult, len(ops))
	err = c.applyBatch(ops, res)
	if err == nil {
		t.Fatalf("mid-batch CLIENT_ERROR not surfaced; results = %+v", res)
	}
	if !strings.Contains(err.Error(), "CLIENT_ERROR") {
		t.Fatalf("error does not carry the server line: %v", err)
	}
	// Results before the abort parsed; from the abort on they stay zero.
	if !res[0].Found || res[1].Found || res[2].Found {
		t.Fatalf("results around the abort: %+v", res)
	}
}

// TestPoolDiscardsConnAfterMopAbort is the pool-level half of the same bug:
// the broken connection must be discarded, not parked.
func TestPoolDiscardsConnAfterMopAbort(t *testing.T) {
	addr := scriptedServer(t, "SERVER_ERROR out of memory\r\n")
	pool := NewPool(addr, 2)
	defer pool.Close()

	res := pool.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchDelete, Key: "a"},
		{Kind: kvcache.BatchSet, Key: "b", Value: []byte("2")},
	})
	if res[0].Found || res[1].Found {
		t.Fatalf("aborted batch reported success: %+v", res)
	}
	st := pool.Stats()
	if st.Discards != 1 {
		t.Fatalf("broken conn not discarded: %+v", st)
	}
	if st.Idle != 0 {
		t.Fatalf("broken conn parked: %+v", st)
	}
}

// TestFailAllReportsCasNotFound: a batch that never reached the cache reads
// as all misses, whatever out held before, and a BatchCas reads CasNotFound —
// not the zero CasResult, which is CasStored. The pool reports an aborted
// exchange through the same fill.
func TestFailAllReportsCasNotFound(t *testing.T) {
	ops := []kvcache.BatchOp{{Kind: kvcache.BatchGets, Key: "a"}, {Kind: kvcache.BatchCas, Key: "a"}, {Kind: kvcache.BatchDelete, Key: "a"}}
	out := make([]kvcache.BatchResult, len(ops))
	for i := range out {
		out[i] = kvcache.BatchResult{Found: true, Value: 7, Data: []byte("stale"), Cas: 9}
	}
	failAll(ops, out)
	want := []kvcache.BatchResult{{}, {CasResult: kvcache.CasNotFound}, {}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("failed batch = %+v, want %+v", out, want)
	}

	pool := NewPool(scriptedServer(t, "SERVER_ERROR out of memory\r\n"), 2)
	defer pool.Close()
	if got := pool.ApplyBatch(ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("aborted batch = %+v, want %+v", got, want)
	}
}

// TestServerNegativeExptime checks the memcached semantics of exptime signs:
// negative means already expired (stored but never retrievable), zero means
// immortal. The regression: a negative exptime used to reach the kvcache
// store as ttl < 0, which it treats as never-expiring — the exact opposite.
func TestServerNegativeExptime(t *testing.T) {
	addr, _ := rawServer(t)
	conn, r := rawDial(t, addr)

	send := func(s string) string {
		t.Helper()
		if _, err := fmt.Fprint(conn, s); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\r\n")
	}

	if got := send("set doomed 0 -1 1\r\nx\r\n"); got != "STORED" {
		t.Fatalf("set with negative exptime = %q, want STORED", got)
	}
	time.Sleep(time.Millisecond) // outlive the 1ns translated ttl
	if got := send("get doomed\r\n"); got != "END" {
		t.Fatalf("negative-exptime entry retrievable: %q", got)
	}
	// add over the expired entry succeeds (the slot is free again)...
	if got := send("add doomed 0 -5 1\r\ny\r\n"); got != "STORED" {
		t.Fatalf("add with negative exptime = %q, want STORED", got)
	}
	time.Sleep(time.Millisecond)
	if got := send("get doomed\r\n"); got != "END" {
		t.Fatalf("negative-exptime add retrievable: %q", got)
	}
	// ...while zero exptime stays the immortal path.
	if got := send("set forever 0 0 1\r\nz\r\n"); got != "STORED" {
		t.Fatalf("set = %q", got)
	}
	time.Sleep(time.Millisecond)
	if got := send("get forever\r\n"); got != "VALUE forever 0 1" {
		t.Fatalf("zero-exptime entry missing: %q", got)
	}
	// Drain the data block + END for framing hygiene.
	for i := 0; i < 2; i++ {
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyBatchSkipsUnsendableOps: ops the server is guaranteed to refuse
// — an oversized value, or a key with whitespace / control characters /
// over-length — are skipped client-side (zero-valued result) while every
// other op in the batch — e.g. the unrelated invalidation deletes the bus
// coalesced with them — still applies. Before the guard, the server aborted
// the whole mop at the first such op and the deletes were silently lost.
func TestApplyBatchSkipsUnsendableOps(t *testing.T) {
	addr, store := rawServer(t)
	store.Set("stale1", []byte("v"), 0)
	store.Set("stale2", []byte("v"), 0)
	pool := NewPool(addr, 2)
	defer pool.Close()

	res := pool.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchDelete, Key: "stale1"},
		{Kind: kvcache.BatchSet, Key: "big", Value: make([]byte, maxValueBytes+1)},
		{Kind: kvcache.BatchDelete, Key: "bad key"},
		{Kind: kvcache.BatchDelete, Key: "ctl\x01key"},
		{Kind: kvcache.BatchDelete, Key: ""},
		{Kind: kvcache.BatchDelete, Key: strings.Repeat("k", maxKeyBytes+1)},
		{Kind: kvcache.BatchDelete, Key: "stale2"},
	})
	if !res[0].Found || !res[6].Found {
		t.Fatalf("deletes around the skipped ops did not apply: %+v", res)
	}
	for i := 1; i <= 5; i++ {
		if res[i].Found {
			t.Fatalf("unsendable op %d reported success: %+v", i, res)
		}
	}
	if _, ok := store.Get("stale1"); ok {
		t.Fatal("stale1 survived the batch")
	}
	if _, ok := store.Get("stale2"); ok {
		t.Fatal("stale2 survived the batch")
	}
	if _, ok := store.Get("big"); ok {
		t.Fatal("oversized value reached the store")
	}
	// The connection stayed framed and healthy.
	if st := pool.Stats(); st.Discards != 0 {
		t.Fatalf("healthy skip discarded the conn: %+v", st)
	}
	// All-unsendable batch: nothing is sent at all.
	res = pool.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchSet, Key: "big2", Value: make([]byte, maxValueBytes+1)},
	})
	if res[0].Found {
		t.Fatalf("all-unsendable batch reported success: %+v", res)
	}

	// The per-op calls, on the pool and on a bare client, are one-op batches
	// and take the same checks. A bad key must not reach the wire: "a b"
	// splits into an extra field, the server refuses the set and then runs
	// its value as a command, so Set("a b", "flush_all") would empty the node.
	cli, err := DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	bad := []string{"a b", "ctl\x01key", "a\r\nflush_all", "", strings.Repeat("k", maxKeyBytes+1)}
	big := make([]byte, maxValueBytes+1)
	for _, c := range []kvcache.Cache{pool, cli} {
		store.Set("survivor", []byte("v"), 0)
		c.Set("a b", []byte("flush_all"), 0)
		for _, k := range bad {
			c.Set(k, []byte("flush_all"), 0)
			if c.Add(k, []byte("flush_all"), 0) {
				t.Errorf("%T: Add(%q) reported success", c, k)
			}
			if r := c.Cas(k, []byte("flush_all"), 0, 1); r != kvcache.CasNotFound {
				t.Errorf("%T: Cas(%q) = %v, want not found", c, k, r)
			}
			if c.Delete(k) {
				t.Errorf("%T: Delete(%q) reported success", c, k)
			}
			if _, ok := c.Incr(k, 1); ok {
				t.Errorf("%T: Incr(%q) reported success", c, k)
			}
			if _, ok := c.Get(k); ok {
				t.Errorf("%T: Get(%q) hit", c, k)
			}
			if _, _, ok := c.Gets(k); ok {
				t.Errorf("%T: Gets(%q) hit", c, k)
			}
		}
		c.Set("big", big, 0)
		if c.Add("big", big, 0) {
			t.Errorf("%T: oversized Add reported success", c)
		}
		if _, ok := store.Get("big"); ok {
			t.Fatalf("%T: oversized value reached the store", c)
		}
		if v, ok := c.Get("survivor"); !ok || string(v) != "v" {
			t.Fatalf("%T: an unrelated key did not survive the bad per-op calls: %q, %v", c, v, ok)
		}
	}
	if st := pool.Stats(); st.Discards != 0 {
		t.Fatalf("per-op skips discarded a conn: %+v", st)
	}
}
