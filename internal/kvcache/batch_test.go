package kvcache

import (
	"fmt"
	"reflect"
	"testing"
)

func TestStoreApplyBatch(t *testing.T) {
	s := New(0)
	s.Set("old", []byte("x"), 0)
	s.Set("ctr", []byte("41"), 0)
	res := s.ApplyBatch([]BatchOp{
		{Kind: BatchSet, Key: "a", Value: []byte("va")},
		{Kind: BatchIncr, Key: "ctr", Delta: 1},
		{Kind: BatchDelete, Key: "old"},
		{Kind: BatchDelete, Key: "missing"},
		{Kind: BatchIncr, Key: "missing", Delta: 1},
	})
	want := []BatchResult{
		{Found: true},
		{Found: true, Value: 42},
		{Found: true},
		{Found: false},
		{Found: false},
	}
	for i, w := range want {
		if !reflect.DeepEqual(res[i], w) {
			t.Fatalf("op %d: result %+v, want %+v", i, res[i], w)
		}
	}
	if v, ok := s.Get("a"); !ok || string(v) != "va" {
		t.Fatalf("a = %q/%v", v, ok)
	}
	if v, _ := s.Get("ctr"); string(v) != "42" {
		t.Fatalf("ctr = %q", v)
	}
	if _, ok := s.Get("old"); ok {
		t.Fatal("old not deleted")
	}
}

// TestBatchGetsThenCas walks the two-batch compare-and-swap through the
// Store's batch entry point: a batch of gets hands out values and tokens, a
// second batch's cas ops store against them, lose to a write in between, or
// find the key gone.
func TestBatchGetsThenCas(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		s := New(0)
		for _, k := range []string{"win", "lose", "gone"} {
			s.Set(k, []byte("old-"+k), 0)
		}
		keys := []string{"win", "lose", "gone", "absent"}
		gets := make([]BatchOp, len(keys))
		for i, k := range keys {
			gets[i] = BatchOp{Kind: BatchGets, Key: k}
		}
		read := s.ApplyBatch(gets)
		for i, k := range keys[:3] {
			if !read[i].Found || string(read[i].Data) != "old-"+k || read[i].Cas == 0 {
				t.Fatalf("gets %s = %+v", k, read[i])
			}
		}
		if read[3].Found || read[3].Data != nil {
			t.Fatalf("gets of an absent key = %+v", read[3])
		}
		s.Set("lose", []byte("raced"), 0)
		s.Delete("gone")
		conflictsBefore := s.Stats().CasConflicts
		cas := make([]BatchOp, 3)
		for i, k := range keys[:3] {
			cas[i] = BatchOp{Kind: BatchCas, Key: k, Value: []byte("new"), Cas: read[i].Cas}
		}
		got := s.ApplyBatch(cas)
		want := []BatchResult{
			{Found: true, CasResult: CasStored},
			{CasResult: CasConflict},
			{CasResult: CasNotFound},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cas results %+v, want %+v", got, want)
		}
		if v, _ := s.Get("win"); string(v) != "new" {
			t.Fatalf("win = %q", v)
		}
		if v, _ := s.Get("lose"); string(v) != "raced" {
			t.Fatalf("a conflicting cas overwrote the racing write: %q", v)
		}
		if n := s.Stats().CasConflicts - conflictsBefore; n != 1 {
			t.Fatalf("cas conflicts counted = %d, want 1", n)
		}
	})
}

// TestBatchGet: a batched get is Cache.Get — value or miss, no token, a hit
// and a miss on the store's counters, the entry promoted like any read — in a
// batch big enough to take the store's grouped path.
func TestBatchGet(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		s := New(0, WithShards(4))
		var ops []BatchOp
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("k%d", i)
			if i%3 != 0 {
				s.Set(k, []byte("v-"+k), 0)
			}
			ops = append(ops, BatchOp{Kind: BatchGet, Key: k})
		}
		before := s.Stats()
		res := s.ApplyBatch(ops)
		for i, r := range res {
			want := BatchResult{}
			if i%3 != 0 {
				want = BatchResult{Found: true, Data: []byte("v-" + ops[i].Key)}
			}
			if !reflect.DeepEqual(r, want) {
				t.Errorf("get %s = %+v, want %+v", ops[i].Key, r, want)
			}
		}
		after := s.Stats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 8 || misses != 4 {
			t.Errorf("counted %d hits and %d misses, want 8 and 4", hits, misses)
		}
		res[1].Data[0] = 'X'
		if v, _ := s.Get("k1"); string(v) != "v-k1" {
			t.Errorf("a batched get handed out the store's own buffer: k1 = %q", v)
		}
	})
}
