package kvcache

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

// keyOps is one store seen through one family of entry points.
type keyOps struct {
	now  time.Time
	gets func(k string) ([]byte, uint64, bool)
	set  func(k string, v []byte, ttl time.Duration)
	add  func(k string, v []byte, ttl time.Duration) bool
	cas  func(k string, v []byte, ttl time.Duration, tok uint64) CasResult
	del  func(k string) bool
	incr func(k string, delta int64) (int64, bool)
}

func newKeyOps(viaBytes bool) (*Store, *keyOps) {
	o := &keyOps{now: time.Unix(7000, 0)}
	s := New(0, WithShards(8), WithClock(func() time.Time { return o.now }))
	if !viaBytes {
		o.gets, o.set, o.add, o.cas, o.del, o.incr = s.Gets, s.Set, s.Add, s.Cas, s.Delete, s.Incr
		return s, o
	}
	o.gets = func(k string) ([]byte, uint64, bool) { return s.GetsAppendB(nil, []byte(k)) }
	o.set = func(k string, v []byte, ttl time.Duration) { s.SetB([]byte(k), v, ttl) }
	o.add = func(k string, v []byte, ttl time.Duration) bool { return s.AddB([]byte(k), v, ttl) }
	o.cas = func(k string, v []byte, ttl time.Duration, tok uint64) CasResult {
		return s.CasB([]byte(k), v, ttl, tok)
	}
	o.del = func(k string) bool { return s.DeleteB([]byte(k)) }
	o.incr = func(k string, delta int64) (int64, bool) { return s.IncrB([]byte(k), delta) }
	return s, o
}

// TestKeyPathsAgree runs every operation through the string entry points on
// one store and the []byte entry points on another. Both families wrap the
// same generic helpers, so each step must answer alike and leave the two
// stores with equal counters and every key on the same shard.
func TestKeyPathsAgree(t *testing.T) {
	gets := func(o *keyOps, k string) any {
		v, tok, ok := o.gets(k)
		return fmt.Sprintf("%q %d %v", v, tok, ok)
	}
	steps := []struct {
		name string
		run  func(o *keyOps) any
	}{
		{"set", func(o *keyOps) any { o.set("a", []byte("1"), 0); return nil }},
		{"set overwrite", func(o *keyOps) any { o.set("a", []byte("10"), 0); return nil }},
		{"add existing", func(o *keyOps) any { return o.add("a", []byte("x"), 0) }},
		{"add absent", func(o *keyOps) any { return o.add("ttl", []byte("t"), time.Second) }},
		{"gets hit", func(o *keyOps) any { return gets(o, "a") }},
		{"gets miss", func(o *keyOps) any { return gets(o, "nope") }},
		{"cas hit", func(o *keyOps) any {
			_, tok, _ := o.gets("a")
			return o.cas("a", []byte("20"), 0, tok)
		}},
		{"cas conflict", func(o *keyOps) any {
			_, tok, _ := o.gets("a")
			return o.cas("a", []byte("x"), 0, tok-1)
		}},
		{"cas missing", func(o *keyOps) any { return o.cas("nope", []byte("x"), 0, 1) }},
		{"incr", func(o *keyOps) any { n, ok := o.incr("a", 5); return fmt.Sprint(n, ok) }},
		{"incr negative", func(o *keyOps) any { n, ok := o.incr("a", -30); return fmt.Sprint(n, ok) }},
		{"incr non-numeric", func(o *keyOps) any { n, ok := o.incr("ttl", 1); return fmt.Sprint(n, ok) }},
		{"incr missing", func(o *keyOps) any { n, ok := o.incr("nope", 1); return fmt.Sprint(n, ok) }},
		{"gets after incr", func(o *keyOps) any { return gets(o, "a") }},
		{"expiry", func(o *keyOps) any { o.now = o.now.Add(2 * time.Second); return gets(o, "ttl") }},
		{"add over expired", func(o *keyOps) any { return o.add("ttl", []byte("again"), 0) }},
		{"delete hit", func(o *keyOps) any { return o.del("a") }},
		{"delete missing", func(o *keyOps) any { return o.del("a") }},
		{"set many", func(o *keyOps) any {
			for i := 0; i < 32; i++ {
				o.set(fmt.Sprintf("k%d", i), []byte("v"), 0)
			}
			return nil
		}},
	}
	str, so := newKeyOps(false)
	byt, bo := newKeyOps(true)
	for _, st := range steps {
		rs, rb := st.run(so), st.run(bo)
		if !reflect.DeepEqual(rs, rb) {
			t.Fatalf("%s: string path %v, []byte path %v", st.name, rs, rb)
		}
		if ss, bs := str.Stats(), byt.Stats(); ss != bs {
			t.Fatalf("%s: string stats %+v, []byte stats %+v", st.name, ss, bs)
		}
	}
	for i := range str.shards {
		sk, bk := shardKeys(&str.shards[i]), shardKeys(&byt.shards[i])
		if !reflect.DeepEqual(sk, bk) {
			t.Fatalf("shard %d holds %v via strings, %v via []byte", i, sk, bk)
		}
		for _, k := range sk {
			if shardIndex(str, k) != i || shardIndex(byt, []byte(k)) != i {
				t.Fatalf("key %q on shard %d, placed at %d / %d", k, i, shardIndex(str, k), shardIndex(byt, []byte(k)))
			}
		}
	}
}

func shardKeys(sh *shard) []string {
	keys := make([]string, 0, len(sh.items))
	for k := range sh.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestByteKeyPathAllocs: the []byte entry points the cacheproto server calls
// stay allocation-free once a key exists and the read buffer is reused.
func TestByteKeyPathAllocs(t *testing.T) {
	s := New(0)
	key, val := []byte("key"), []byte("value")
	s.SetB(key, val, 0)
	ctr := []byte("ctr")
	s.SetB(ctr, []byte("1000000"), 0) // increments keep the width
	doomed := make([][]byte, 101)     // AllocsPerRun(100) calls 101 times
	for i := range doomed {
		doomed[i] = []byte(fmt.Sprintf("doomed-%d", i))
		s.SetB(doomed[i], val, 0)
	}
	buf := make([]byte, 0, 64)
	next := 0
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"GetsAppendB", func() { buf, _, _ = s.GetsAppendB(buf[:0], key) }},
		{"SetB overwrite", func() { s.SetB(key, val, 0) }},
		{"CasB", func() {
			var tok uint64
			buf, tok, _ = s.GetsAppendB(buf[:0], key)
			if s.CasB(key, val, 0, tok) != CasStored {
				t.Fatal("cas lost")
			}
		}},
		{"DeleteB", func() {
			if !s.DeleteB(doomed[next]) {
				t.Fatal("nothing deleted")
			}
			next++
		}},
		{"IncrB", func() { s.IncrB(ctr, 1) }},
	} {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", c.name, n)
		}
	}
}
