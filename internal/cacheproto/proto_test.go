package cacheproto

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqlval"
)

func newPair(t *testing.T) (*kvcache.Store, *Client) {
	t.Helper()
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return store, cli
}

func TestClientSetGet(t *testing.T) {
	_, cli := newPair(t)
	cli.Set("greeting", []byte("hello world"), 0)
	v, ok := cli.Get("greeting")
	if !ok || string(v) != "hello world" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := cli.Get("absent"); ok {
		t.Fatal("Get(absent) = ok")
	}
}

func TestClientBinarySafety(t *testing.T) {
	_, cli := newPair(t)
	payload := []byte("line1\r\nline2\x00binary\xff")
	cli.Set("bin", payload, 0)
	v, ok := cli.Get("bin")
	if !ok || string(v) != string(payload) {
		t.Fatalf("binary round trip failed: %q", v)
	}
}

func TestClientAdd(t *testing.T) {
	_, cli := newPair(t)
	if !cli.Add("k", []byte("1"), 0) {
		t.Fatal("first add failed")
	}
	if cli.Add("k", []byte("2"), 0) {
		t.Fatal("second add succeeded")
	}
}

func TestClientCasCycle(t *testing.T) {
	_, cli := newPair(t)
	cli.Set("k", []byte("v1"), 0)
	v, tok, ok := cli.Gets("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Gets = %q, %v", v, ok)
	}
	if r := cli.Cas("k", []byte("v2"), 0, tok); r != kvcache.CasStored {
		t.Fatalf("Cas = %v", r)
	}
	if r := cli.Cas("k", []byte("v3"), 0, tok); r != kvcache.CasConflict {
		t.Fatalf("stale Cas = %v", r)
	}
	cli.Delete("k")
	if r := cli.Cas("k", []byte("v4"), 0, tok); r != kvcache.CasNotFound {
		t.Fatalf("Cas after delete = %v", r)
	}
}

func TestClientDeleteIncr(t *testing.T) {
	_, cli := newPair(t)
	cli.Set("n", []byte("10"), 0)
	v, ok := cli.Incr("n", 5)
	if !ok || v != 15 {
		t.Fatalf("Incr = %d, %v", v, ok)
	}
	if !cli.Delete("n") {
		t.Fatal("Delete = false")
	}
	if _, ok := cli.Incr("n", 1); ok {
		t.Fatal("Incr after delete succeeded")
	}
}

func TestClientFlushAllAndStats(t *testing.T) {
	store, cli := newPair(t)
	for i := 0; i < 5; i++ {
		cli.Set(fmt.Sprintf("k%d", i), []byte("v"), 0)
	}
	cli.FlushAll()
	if store.Len() != 0 {
		t.Fatalf("store has %d items after flush", store.Len())
	}
	st, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st["cmd_set"] != 5 {
		t.Fatalf("cmd_set = %d", st["cmd_set"])
	}
}

func TestClientTTLExpiry(t *testing.T) {
	// Server-side clock is real; use a 1s TTL and a manufactured clock is
	// not available over the wire, so just verify the TTL is transmitted
	// (value present immediately).
	_, cli := newPair(t)
	cli.Set("k", []byte("v"), 30*time.Second)
	if _, ok := cli.Get("k"); !ok {
		t.Fatal("value with TTL missing immediately")
	}
}

func TestConcurrentClients(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				cli.Set(k, []byte(fmt.Sprintf("v%d", i)), 0)
				v, ok := cli.Get(k)
				if !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("round trip %s failed", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if store.Len() != 400 {
		t.Fatalf("store has %d items, want 400", store.Len())
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cli.Set("k", []byte("v"), 0)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations after close degrade to misses, not hangs.
	done := make(chan struct{})
	go func() {
		cli.Get("k")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("client hung after server close")
	}
}

func TestSharedClientConcurrency(t *testing.T) {
	_, cli := newPair(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("s%d", i%7)
				cli.Set(k, []byte("v"), 0)
				cli.Get(k)
			}
		}(g)
	}
	wg.Wait()
}

func TestClientApplyBatchPipelinedRoundTrip(t *testing.T) {
	store, cli := newPair(t)
	store.Set("old", []byte("x"), 0)
	store.Set("ctr", []byte("9"), 0)
	ops := []kvcache.BatchOp{
		{Kind: kvcache.BatchSet, Key: "a", Value: []byte("va")},
		{Kind: kvcache.BatchSet, Key: "bin", Value: []byte("x\r\ny\x00z")},
		{Kind: kvcache.BatchIncr, Key: "ctr", Delta: -4},
		{Kind: kvcache.BatchDelete, Key: "old"},
		{Kind: kvcache.BatchDelete, Key: "missing"},
	}
	res := cli.ApplyBatch(ops)
	want := []kvcache.BatchResult{
		{Found: true},
		{Found: true},
		{Found: true, Value: 5},
		{Found: true},
		{Found: false},
	}
	for i, w := range want {
		if !reflect.DeepEqual(res[i], w) {
			t.Fatalf("op %d: result %+v, want %+v", i, res[i], w)
		}
	}
	if v, ok := store.Get("bin"); !ok || string(v) != "x\r\ny\x00z" {
		t.Fatalf("binary batch value corrupted: %q", v)
	}
	if _, ok := store.Get("old"); ok {
		t.Fatal("batched delete did not apply")
	}
	// The connection stays framed: a normal op after a batch still works.
	cli.Set("after", []byte("ok"), 0)
	if v, ok := cli.Get("after"); !ok || string(v) != "ok" {
		t.Fatalf("connection desynced after batch: %q %v", v, ok)
	}
}

// TestClientApplyBatchGetsCas round-trips the read-dependent sub-commands:
// one mop of gets (hit, miss), then one of cas (stored, conflict, not found)
// mixed with the plain mutations a write-set flush carries, and an oversized
// cas value that must be skipped client-side without costing the batch.
func TestClientApplyBatchGetsCas(t *testing.T) {
	store, cli := newPair(t)
	for _, k := range []string{"win", "lose", "gone", "big"} {
		store.Set(k, []byte("old-"+k+"\r\nEND"), 0)
	}
	store.Set("ctr", []byte("1"), 0)
	read := cli.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchGets, Key: "win"},
		{Kind: kvcache.BatchGets, Key: "absent"},
		{Kind: kvcache.BatchGets, Key: "lose"},
		{Kind: kvcache.BatchGets, Key: "gone"},
		{Kind: kvcache.BatchGets, Key: "big"},
	})
	for i, k := range []string{"win", "", "lose", "gone", "big"} {
		if k == "" {
			if read[i].Found || read[i].Data != nil {
				t.Fatalf("gets of an absent key = %+v", read[i])
			}
			continue
		}
		_, tok, _ := store.Gets(k)
		if !read[i].Found || string(read[i].Data) != "old-"+k+"\r\nEND" || read[i].Cas != tok {
			t.Fatalf("gets %s = %+v (store token %d)", k, read[i], tok)
		}
	}
	store.Set("lose", []byte("raced"), 0)
	store.Delete("gone")
	got := cli.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchCas, Key: "win", Value: []byte("new"), Cas: read[0].Cas},
		{Kind: kvcache.BatchCas, Key: "big", Value: make([]byte, maxValueBytes+1), Cas: read[4].Cas},
		{Kind: kvcache.BatchCas, Key: "lose", Value: []byte("new"), Cas: read[2].Cas},
		{Kind: kvcache.BatchIncr, Key: "ctr", Delta: 2},
		{Kind: kvcache.BatchCas, Key: "gone", Value: []byte("new"), Cas: read[3].Cas},
		{Kind: kvcache.BatchDelete, Key: "ctr"},
	})
	want := []kvcache.BatchResult{
		{Found: true, CasResult: kvcache.CasStored},
		{CasResult: kvcache.CasNotFound}, // never sent
		{CasResult: kvcache.CasConflict},
		{Found: true, Value: 3},
		{CasResult: kvcache.CasNotFound},
		{Found: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results %+v, want %+v", got, want)
	}
	if v, _ := store.Get("win"); string(v) != "new" {
		t.Fatalf("win = %q", v)
	}
	if v, _ := store.Get("lose"); string(v) != "raced" {
		t.Fatalf("a conflicting cas overwrote the racing write: %q", v)
	}
	if v, _ := store.Get("big"); string(v) != "old-big\r\nEND" {
		t.Fatalf("the skipped oversized cas touched its key: %q", v)
	}
	// The connection stays framed after both batches.
	if v, ok := cli.Get("win"); !ok || string(v) != "new" {
		t.Fatalf("connection desynced after batch: %q %v", v, ok)
	}
}

// TestClientApplyBatchEdit: a list edit travels as an edit sub-command with
// set's framing and comes back with what the node's replay counted — SHORT
// when a top-K removal used up the reserve and the node dropped the key — and
// an edit of an entry that is not a list drops it; the batch's other ops and
// the connection's framing are untouched.
func TestClientApplyBatchEdit(t *testing.T) {
	store, cli := newPair(t)
	row := func(pk, v int64) sqlval.Row { return sqlval.Row{sqlval.I64(pk), sqlval.I64(v), sqlval.Str("x\r\nEND")} }
	topk := rowlist.Shape{Class: rowlist.TopK, SortCol: 1, Desc: true, K: 2, Limit: 3}
	edit := func(ops ...rowlist.Op) []byte {
		b := rowlist.AppendShape(nil, topk)
		for i := range ops {
			b = rowlist.AppendOp(b, &ops[i])
		}
		return b
	}
	store.Set("list", rowlist.Encode(rowlist.List{Rows: []sqlval.Row{row(1, 30), row(2, 20)}}), 0)
	store.Set("short", rowlist.Encode(rowlist.List{Rows: []sqlval.Row{row(1, 30), row(2, 20)}}), 0)
	store.Set("junk", []byte("not a list"), 0)
	store.Set("ctr", []byte("1"), 0)
	got := cli.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchEdit, Key: "list", Value: edit(rowlist.Op{Kind: rowlist.Insert, New: row(3, 25)}, rowlist.Op{Kind: rowlist.Insert, New: row(3, 25)})},
		{Kind: kvcache.BatchEdit, Key: "short", Value: edit(rowlist.Op{Kind: rowlist.Remove, Old: row(1, 30)})},
		{Kind: kvcache.BatchIncr, Key: "ctr", Delta: 2},
		{Kind: kvcache.BatchEdit, Key: "junk", Value: edit(rowlist.Op{Kind: rowlist.Remove, Old: row(1, 30)})},
		{Kind: kvcache.BatchEdit, Key: "absent", Value: edit(rowlist.Op{Kind: rowlist.Remove, Old: row(1, 30)})},
	})
	want := []kvcache.BatchResult{
		{Found: true, Edit: rowlist.Result{Updates: 1}},
		{Found: true, Edit: rowlist.Result{Updates: 1, Short: true}},
		{Found: true, Value: 3},
		{Found: true, Edit: rowlist.Result{Deletes: 1}},
		{Found: true, Edit: rowlist.Result{Skips: 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results %+v, want %+v", got, want)
	}
	raw, _ := store.Get("list")
	if l, err := rowlist.Decode(raw); err != nil || len(l.Rows) != 3 || rowlist.PK(l.Rows[1]) != 3 {
		t.Fatalf("list after the edit = %+v, %v", l, err)
	}
	for _, k := range []string{"short", "junk", "absent"} {
		if _, ok := store.Get(k); ok {
			t.Fatalf("%s is cached after its edit", k)
		}
	}
	if v, ok := cli.Get("ctr"); !ok || string(v) != "3" {
		t.Fatalf("connection desynced after the batch: %q %v", v, ok)
	}
}

// TestClientApplyBatchGet: a batched get travels as a gets and comes back
// without its token; an unsendable key is a miss that costs the rest of the
// batch nothing, and the connection stays framed.
func TestClientApplyBatchGet(t *testing.T) {
	store, cli := newPair(t)
	store.Set("a", []byte("value-a\r\nEND"), 0)
	store.Set("b", []byte(""), 0)
	got := cli.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchGet, Key: "a"},
		{Kind: kvcache.BatchGet, Key: "absent"},
		{Kind: kvcache.BatchGet, Key: "bad key"},
		{Kind: kvcache.BatchGet, Key: "b"},
		{Kind: kvcache.BatchGets, Key: "a"},
	})
	_, tok, _ := store.Gets("a")
	want := []kvcache.BatchResult{
		{Found: true, Data: []byte("value-a\r\nEND")},
		{},
		{}, // never sent
		{Found: true, Data: []byte{}},
		{Found: true, Data: []byte("value-a\r\nEND"), Cas: tok},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results %+v, want %+v", got, want)
	}
	if v, ok := cli.Get("a"); !ok || string(v) != "value-a\r\nEND" {
		t.Fatalf("connection desynced after batch: %q %v", v, ok)
	}
}

func TestClientApplyBatchEmpty(t *testing.T) {
	_, cli := newPair(t)
	if res := cli.ApplyBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}
