package cacheproto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqlval"
)

// The hot-path benchmarks drive the server's per-connection dispatch loop
// directly over in-memory readers, isolating protocol parsing + store work
// from socket syscalls. The acceptance target is ~0 allocs/op in steady
// state for get and (overwrite) set; CI runs these with -benchmem.

func benchConn(srv *Server) (*serverConn, *bytes.Reader, *bufio.Reader) {
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	bw := bufio.NewWriter(io.Discard)
	return srv.newServerConn(br, bw), rd, br
}

func runRequest(b *testing.B, c *serverConn, rd *bytes.Reader, br *bufio.Reader, req []byte) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(req)
		br.Reset(rd)
		if !c.serveOne() {
			b.Fatal("connection state died mid-benchmark")
		}
	}
}

func BenchmarkServerHotPathGet(b *testing.B) {
	store := kvcache.New(0)
	store.Set("bench-key", make([]byte, 256), 0)
	c, rd, br := benchConn(NewServer(store))
	runRequest(b, c, rd, br, []byte("get bench-key\r\n"))
}

func BenchmarkServerHotPathGets(b *testing.B) {
	store := kvcache.New(0)
	store.Set("bench-key", make([]byte, 256), 0)
	c, rd, br := benchConn(NewServer(store))
	runRequest(b, c, rd, br, []byte("gets bench-key\r\n"))
}

func BenchmarkServerHotPathGetMiss(b *testing.B) {
	c, rd, br := benchConn(NewServer(kvcache.New(0)))
	runRequest(b, c, rd, br, []byte("get absent-key\r\n"))
}

func BenchmarkServerHotPathSet(b *testing.B) {
	store := kvcache.New(1 << 24)
	c, rd, br := benchConn(NewServer(store))
	val := bytes.Repeat([]byte("v"), 256)
	req := append([]byte(fmt.Sprintf("set bench-key 0 0 %d\r\n", len(val))), val...)
	req = append(req, '\r', '\n')
	// Prime once so the timed loop measures the overwrite path.
	rd.Reset(req)
	br.Reset(rd)
	if !c.serveOne() {
		b.Fatal("priming set failed")
	}
	runRequest(b, c, rd, br, req)
}

func BenchmarkServerHotPathDelete(b *testing.B) {
	// Delete of an absent key: measures parse + shard lookup without the
	// (allocating) insert needed to make every delete hit.
	c, rd, br := benchConn(NewServer(kvcache.New(0)))
	runRequest(b, c, rd, br, []byte("delete absent-key\r\n"))
}

func BenchmarkServerHotPathIncr(b *testing.B) {
	store := kvcache.New(0)
	store.Set("ctr", []byte("0"), 0)
	c, rd, br := benchConn(NewServer(store))
	runRequest(b, c, rd, br, []byte("incr ctr 1\r\n"))
}

func BenchmarkServerHotPathMop(b *testing.B) {
	store := kvcache.New(0)
	store.Set("ctr", []byte("0"), 0)
	store.Set("seed", bytes.Repeat([]byte("v"), 64), 0)
	c, rd, br := benchConn(NewServer(store))
	req := []byte("mop 3\r\nset seed 0 0 64\r\n" + string(bytes.Repeat([]byte("v"), 64)) + "\r\nincr ctr 1\r\ndelete absent\r\n")
	runRequest(b, c, rd, br, req)
}

// BenchmarkServerHotPathMopGetsCas is the write-set's exchange shape: a mop
// that reads a key's value and token and one that swaps against it. Every cas
// must store, so the request carries the token zero-padded to a fixed width
// and the loop rewrites those digits in place with the token the previous
// swap left behind.
func BenchmarkServerHotPathMopGetsCas(b *testing.B) {
	store := kvcache.New(0)
	val := string(bytes.Repeat([]byte("v"), 64))
	store.Set("seed", []byte(val), 0)
	store.Set("ctr", []byte("0"), 0)
	_, tok, _ := store.Gets("ctr") // the newest token; the first swap bumps it once more
	c, rd, br := benchConn(NewServer(store))
	const width = 20
	head := "mop 4\r\ngets seed\r\ngets absent\r\nincr ctr 1\r\ncas seed 0 0 64 "
	req := []byte(head + string(make([]byte, width)) + "\r\n" + val + "\r\n")
	digits := req[len(head) : len(head)+width]
	// Prime with a plain set so the timed loop's first cas overwrites too.
	store.Set("seed", []byte(val), 0)
	tok++
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := width-1, tok; j >= 0; j, n = j-1, n/10 {
			digits[j] = byte('0' + n%10)
		}
		tok += 2 // the incr and the cas each take a token
		rd.Reset(req)
		br.Reset(rd)
		if !c.serveOne() {
			b.Fatal("connection state died mid-benchmark")
		}
	}
	b.StopTimer()
	if st := store.Stats(); st.CasConflicts != 0 {
		b.Fatalf("%d of %d swaps conflicted: the benchmark measured the refusal path", st.CasConflicts, b.N)
	}
}

// benchList is a 20-row cached list of (pk, owner, text) rows and an edit of
// it that replaces one row with itself: it changes the list, so every replay
// decodes, edits, re-encodes and stores it, and leaves the same bytes for the
// next one.
func benchList() (entry, edit []byte) {
	row := func(pk int64) sqlval.Row {
		return sqlval.Row{sqlval.I64(pk), sqlval.I64(7), sqlval.Str(fmt.Sprintf("bookmark %02d of user seven", pk))}
	}
	var l rowlist.List
	for pk := int64(1); pk <= 20; pk++ {
		l.Rows = append(l.Rows, row(pk))
	}
	op := rowlist.Op{Kind: rowlist.Replace, Old: row(9), New: row(9)}
	return rowlist.Encode(l), rowlist.AppendOp(rowlist.AppendShape(nil, rowlist.Shape{Class: rowlist.Feature}), &op)
}

// BenchmarkServerHotPathMopEdit is the write-set's exchange shape at the
// server: a mop carrying one list edit, which the store replays over the
// cached list. The replay decodes its text values as views of the bytes it
// holds, so it allocates nothing either.
func BenchmarkServerHotPathMopEdit(b *testing.B) {
	store := kvcache.New(0)
	entry, edit := benchList()
	store.Set("list", entry, 0)
	c, rd, br := benchConn(NewServer(store))
	req := []byte(fmt.Sprintf("mop 1\r\nedit list 0 0 %d\r\n%s\r\n", len(edit), edit))
	runRequest(b, c, rd, br, req)
	b.StopTimer()
	if v, _ := store.Get("list"); !bytes.Equal(v, entry) {
		b.Fatal("the edit left different bytes")
	}
}

// loopbackPool serves a fresh store on loopback TCP and returns a Pool
// onto it, the way every stack reaches a node: checkout, breaker and
// metrics on each op.
func loopbackPool(b *testing.B, store *kvcache.Store) *Pool {
	b.Helper()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	p := NewPoolWithConfig(PoolConfig{Addr: addr})
	b.Cleanup(func() {
		p.Close()
		srv.Close()
	})
	return p
}

// BenchmarkLoopbackGet measures a full pool->server->pool round trip on
// loopback TCP: a per-op Get, which travels as a one-op mop. The one
// remaining allocation is the slab the fetched value is returned in (it must
// survive the next op) — the request/response machinery itself is
// allocation-free on both ends.
func BenchmarkLoopbackGet(b *testing.B) {
	p := loopbackPool(b, kvcache.New(0))
	p.Set("bench-key", bytes.Repeat([]byte("v"), 256), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Get("bench-key"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLoopbackSet is the loopback round trip for the write path; the
// client builds the request in its reusable buffer, the server stores via
// the overwrite path, and neither end allocates in steady state. The pool
// case is the path every stack runs; the client case is a bare Client's
// per-op call, which the pool's exchange does not go through.
func BenchmarkLoopbackSet(b *testing.B) {
	op := kvcache.BatchOp{Kind: kvcache.BatchSet, Key: "bench-key", Value: bytes.Repeat([]byte("v"), 256)}
	p := loopbackPool(b, kvcache.New(1<<24))
	cli, err := Dial(p.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	b.Run("pool", func(b *testing.B) { benchSet(b, p.one, op) })
	b.Run("client", func(b *testing.B) { benchSet(b, cli.one, op) })
}

func benchSet(b *testing.B, one func(kvcache.BatchOp) kvcache.BatchResult, op kvcache.BatchOp) {
	one(op) // the first set inserts; the timed ones overwrite
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !one(op).Found {
			b.Fatal("set not stored")
		}
	}
}

// BenchmarkLoopbackGetsCas is the write-set flush's shape through the pool:
// one batch of gets, then one batch of cas ops carrying the tokens it read.
// Each ApplyBatch returns a fresh result slice and the gets batch one value
// slab, so an iteration costs 3 allocations however many keys it carries.
func BenchmarkLoopbackGetsCas(b *testing.B) {
	p := loopbackPool(b, kvcache.New(1<<24))
	val := bytes.Repeat([]byte("v"), 64)
	gets := make([]kvcache.BatchOp, 4)
	cas := make([]kvcache.BatchOp, len(gets))
	for i := range gets {
		key := fmt.Sprintf("bench-key-%d", i)
		p.Set(key, val, 0)
		gets[i] = kvcache.BatchOp{Kind: kvcache.BatchGets, Key: key}
		cas[i] = kvcache.BatchOp{Kind: kvcache.BatchCas, Key: key, Value: val}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range p.ApplyBatch(gets) {
			if !r.Found {
				b.Fatal("gets missed")
			}
			cas[j].Cas = r.Cas
		}
		for _, r := range p.ApplyBatch(cas) {
			if r.CasResult != kvcache.CasStored {
				b.Fatalf("cas = %v, want stored", r.CasResult)
			}
		}
	}
}

// BenchmarkLoopbackListEdit is the write-set flush's shape through the pool:
// one batch carrying one edit per key, here the list edit of
// BenchmarkServerHotPathMopEdit on four cached lists. Neither end allocates
// for the exchange, so an iteration costs the one result slice ApplyBatch
// returns.
func BenchmarkLoopbackListEdit(b *testing.B) {
	store := kvcache.New(1 << 24)
	p := loopbackPool(b, store)
	entry, edit := benchList()
	ops := make([]kvcache.BatchOp, 4)
	for i := range ops {
		key := fmt.Sprintf("bench-list-%d", i)
		store.Set(key, entry, 0)
		ops[i] = kvcache.BatchOp{Kind: kvcache.BatchEdit, Key: key, Value: edit}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range p.ApplyBatch(ops) {
			if !r.Found || r.Edit.Updates != 1 {
				b.Fatalf("edit = %+v, want one update", r)
			}
		}
	}
}

func TestSplitFieldsAndAtoi(t *testing.T) {
	fields := splitFields([]byte("  set   key\t0  91 "), nil)
	want := []string{"set", "key", "0", "91"}
	if len(fields) != len(want) {
		t.Fatalf("fields = %q", fields)
	}
	for i, w := range want {
		if string(fields[i]) != w {
			t.Fatalf("field %d = %q, want %q", i, fields[i], w)
		}
	}
	if fs := splitFields([]byte("   "), nil); len(fs) != 0 {
		t.Fatalf("blank line split = %q", fs)
	}
	cases := map[string]struct {
		n  int64
		ok bool
	}{
		"0": {0, true}, "42": {42, true}, "-7": {-7, true},
		"": {0, false}, "-": {0, false}, "12x": {0, false},
		"9223372036854775807":  {1<<63 - 1, true},
		"9223372036854775808":  {0, false}, // one past MaxInt64
		"99999999999999999999": {0, false}, // overflow
		// Wraps past uint64 back into range: must be rejected, not accepted
		// as 0 — a byte count of 0 here would desync the stream framing.
		"18446744073709551616": {0, false},
	}
	for in, want := range cases {
		n, ok := atoi([]byte(in))
		if ok != want.ok || (ok && n != want.n) {
			t.Fatalf("atoi(%q) = %d,%v want %d,%v", in, n, ok, want.n, want.ok)
		}
	}
	if n, ok := atou([]byte("18446744073709551615")); !ok || n != 1<<64-1 {
		t.Fatalf("atou max = %d, %v", n, ok)
	}
	if _, ok := atou([]byte("18446744073709551616")); ok {
		t.Fatal("atou overflow accepted")
	}
	if _, ok := atou([]byte("30000000000000000005")); ok {
		t.Fatal("atou wrap-into-range accepted")
	}
	if _, ok := atou([]byte("")); ok {
		t.Fatal("atou empty accepted")
	}
}
