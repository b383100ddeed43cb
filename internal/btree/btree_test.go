package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// check validates the tree's invariants: every node's keys are packed
// consistently, share its prefix, match their heads, ascend strictly and lie
// inside the range its parent's separators give it; every non-root node is
// at least minimally full and no node over full; all leaves sit at one depth
// and the leaf chain links them in key order; and the recorded size is the
// key count.
func (t *Tree) check() error {
	var leaves []*leafNode
	depth := -1
	var walk func(n node, lo, hi []byte, level int) error
	walk = func(n node, lo, hi []byte, level int) error {
		var kl *keyList
		switch x := n.(type) {
		case *leafNode:
			kl = &x.keys
		case *innerNode:
			kl = &x.keys
		}
		if len(kl.offs) == 0 || kl.offs[0] != 0 || int(kl.offs[kl.len()]) != len(kl.buf) {
			return fmt.Errorf("btree: offsets %v do not span a %d-byte buffer", kl.offs, len(kl.buf))
		}
		if len(kl.heads) != kl.len() {
			return fmt.Errorf("btree: %d keys and %d heads", kl.len(), len(kl.heads))
		}
		for i := range kl.len() {
			if kl.offs[i] > kl.offs[i+1] {
				return fmt.Errorf("btree: key %d ends at %d, before its start %d", i, kl.offs[i+1], kl.offs[i])
			}
			k := kl.at(i)
			if !bytes.HasPrefix(k, kl.buf[:kl.skip]) || kl.heads[i] != head(k[kl.skip:]) {
				return fmt.Errorf("btree: key %q does not match its node's prefix %q and head %#x", k, kl.buf[:kl.skip], kl.heads[i])
			}
			if i > 0 && bytes.Compare(kl.at(i-1), k) >= 0 {
				return fmt.Errorf("btree: keys out of order: %q >= %q", kl.at(i-1), k)
			}
			if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
				return fmt.Errorf("btree: key %q outside its node's range [%q, %q)", k, lo, hi)
			}
		}
		root := level == 0
		switch x := n.(type) {
		case *leafNode:
			if len(x.vals) != kl.len() {
				return fmt.Errorf("btree: leaf has %d keys and %d values", kl.len(), len(x.vals))
			}
			if kl.len() >= t.order || (!root && kl.len() < t.minLeafKeys()) {
				return fmt.Errorf("btree: leaf holds %d keys at order %d", kl.len(), t.order)
			}
			if depth >= 0 && level != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", depth, level)
			}
			depth = level
			leaves = append(leaves, x)
		case *innerNode:
			if len(x.children) != kl.len()+1 {
				return fmt.Errorf("btree: inner node has %d keys and %d children", kl.len(), len(x.children))
			}
			if len(x.children) > t.order || len(x.children) < 2 || (!root && len(x.children) < t.minInnerChildren()) {
				return fmt.Errorf("btree: inner node has %d children at order %d", len(x.children), t.order)
			}
			for i, c := range x.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = kl.at(i - 1)
				}
				if i < kl.len() {
					chi = kl.at(i)
				}
				if err := walk(c, clo, chi, level+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil, 0); err != nil {
		return err
	}
	count := 0
	for i, l := range leaves {
		var next *leafNode
		if i+1 < len(leaves) {
			next = leaves[i+1]
		}
		if l.next != next {
			return fmt.Errorf("btree: leaf %d of %d links to the wrong successor", i, len(leaves))
		}
		count += l.keys.len()
	}
	if count != t.size {
		return fmt.Errorf("btree: size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New(8)
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(key(1)); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Delete(key(1)) {
		t.Fatal("Delete on empty tree returned true")
	}
	if tr.Min() != nil || tr.Max() != nil {
		t.Fatal("Min/Max on empty tree should be nil")
	}
	if it := tr.Scan(nil, nil); it.Valid() {
		t.Fatal("iterator on empty tree should be invalid")
	}
}

func TestSetGet(t *testing.T) {
	tr := New(8)
	const n = 1000
	for i := 0; i < n; i++ {
		if !tr.Set(key(i), int64(i)) {
			t.Fatalf("Set(%d) reported replace on fresh key", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len() = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != int64(i) {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", i, v, ok, i)
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestSetReplaces(t *testing.T) {
	tr := New(4)
	tr.Set(key(7), 1)
	if tr.Set(key(7), 2) {
		t.Fatal("second Set of same key reported insert")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
	if v, _ := tr.Get(key(7)); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
}

func TestDeleteAll(t *testing.T) {
	for _, order := range []int{4, 5, 8, 64} {
		t.Run(fmt.Sprintf("order=%d", order), func(t *testing.T) {
			tr := New(order)
			const n = 500
			for i := 0; i < n; i++ {
				tr.Set(key(i), int64(i))
			}
			// Delete in a scrambled order.
			perm := rand.New(rand.NewSource(42)).Perm(n)
			for j, i := range perm {
				if !tr.Delete(key(i)) {
					t.Fatalf("Delete(%d) = false", i)
				}
				if tr.Delete(key(i)) {
					t.Fatalf("second Delete(%d) = true", i)
				}
				if tr.Len() != n-j-1 {
					t.Fatalf("Len() = %d after %d deletes", tr.Len(), j+1)
				}
				if err := tr.check(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestScanRange(t *testing.T) {
	tr := New(6)
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Set(key(i), int64(i))
	}
	// Scan [10, 20) should see 10,12,...,18.
	var got []int64
	for it := tr.Scan(key(10), key(20)); it.Valid(); it.Next() {
		got = append(got, it.Value())
	}
	want := []int64{10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Scan starting between keys lands on the next key.
	it := tr.Scan(key(11), nil)
	if !it.Valid() || it.Value() != 12 {
		t.Fatalf("Scan(11) starts at %v, want 12", it.Value())
	}
}

func TestMinMax(t *testing.T) {
	tr := New(4)
	for _, i := range []int{5, 3, 9, 1, 7} {
		tr.Set(key(i), int64(i))
	}
	if !bytes.Equal(tr.Min(), key(1)) {
		t.Fatalf("Min = %q", tr.Min())
	}
	if !bytes.Equal(tr.Max(), key(9)) {
		t.Fatalf("Max = %q", tr.Max())
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i++ {
		tr.Set(key(i), int64(i))
	}
	seen := 0
	tr.Ascend(func(k []byte, v int64) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("Ascend visited %d, want 10", seen)
	}
}

// TestAgainstSortedMap drives the tree and a reference map with a random op
// sequence and checks full equivalence after every operation batch.
func TestAgainstSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New(5)
	ref := map[string]int64{}
	for step := 0; step < 5000; step++ {
		k := key(rng.Intn(400))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int63()
			tr.Set(k, v)
			ref[string(k)] = v
		case 2:
			delTree := tr.Delete(k)
			_, inRef := ref[string(k)]
			if delTree != inRef {
				t.Fatalf("step %d: Delete(%q) = %v, ref has %v", step, k, delTree, inRef)
			}
			delete(ref, string(k))
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len() = %d, ref %d", tr.Len(), len(ref))
	}
	// Ordered walk must match sorted reference keys.
	refKeys := make([]string, 0, len(ref))
	for k := range ref {
		refKeys = append(refKeys, k)
	}
	sort.Strings(refKeys)
	i := 0
	tr.Ascend(func(k []byte, v int64) bool {
		if string(k) != refKeys[i] {
			t.Fatalf("walk[%d] = %q, want %q", i, k, refKeys[i])
		}
		if v != ref[refKeys[i]] {
			t.Fatalf("walk[%d] value = %d, want %d", i, v, ref[refKeys[i]])
		}
		i++
		return true
	})
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEquivalence is a property test: for any key multiset, Get after a
// sequence of Sets returns the last written value.
func TestQuickEquivalence(t *testing.T) {
	f := func(keys []uint16, vals []int64) bool {
		tr := New(4)
		ref := map[string]int64{}
		for i, k := range keys {
			var v int64
			if i < len(vals) {
				v = vals[i]
			}
			kb := key(int(k))
			tr.Set(kb, v)
			ref[string(kb)] = v
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get([]byte(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeleteSubset: deleting any subset leaves exactly the complement.
func TestQuickDeleteSubset(t *testing.T) {
	f := func(keys []uint8, delMask []bool) bool {
		tr := New(4)
		present := map[string]bool{}
		for _, k := range keys {
			kb := key(int(k))
			tr.Set(kb, int64(k))
			present[string(kb)] = true
		}
		for i, k := range keys {
			if i < len(delMask) && delMask[i] {
				kb := key(int(k))
				tr.Delete(kb)
				delete(present, string(kb))
			}
		}
		if tr.Len() != len(present) {
			return false
		}
		for k := range present {
			if _, ok := tr.Get([]byte(k)); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyOwnership(t *testing.T) {
	tr := New(4)
	k := []byte("mutate-me")
	tr.Set(k, 1)
	k[0] = 'X' // caller mutates its buffer; tree must be unaffected
	if _, ok := tr.Get([]byte("mutate-me")); !ok {
		t.Fatal("tree key was aliased to caller buffer")
	}
}

// varKey returns a key of 0 to 300 bytes over a four-letter alphabet that
// includes 0x00 and 0xff, so keys share long prefixes and many are prefixes
// of one another.
func varKey(rng *rand.Rand) []byte {
	const alphabet = "\x00\x01a\xff"
	k := make([]byte, rng.Intn(301))
	for i := range k {
		k[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return k
}

// TestVariableLengthKeys drives an order-4 tree with keys of 0 to 300 bytes
// (the empty key among them, and chains of keys that are prefixes of one
// another) through interleaved Set, Delete and Scan, against a sorted
// reference, checking every invariant after every step. The tree grows and
// shrinks in phases, so leaves and inner nodes split, borrow from either
// side and merge, with keys of unequal length moving between packed nodes.
func TestVariableLengthKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := [][]byte{{}}
	for len(pool) < 400 {
		k := varKey(rng)
		pool = append(pool, k)
		for n := rng.Intn(4); n > 0 && len(k) > 0; n-- {
			pool = append(pool, k[:rng.Intn(len(k))])
		}
	}
	pick := func() []byte { return pool[rng.Intn(len(pool))] }

	tr := New(4)
	ref := map[string]int64{}
	sorted := func() []string {
		ks := make([]string, 0, len(ref))
		for k := range ref {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for step := 0; step < 6000; step++ {
		grow := step/750%2 == 0 // alternate growing and shrinking phases
		switch r := rng.Intn(10); {
		case r < 2:
			var lo, hi []byte
			if rng.Intn(4) > 0 {
				lo = pick()
			}
			if rng.Intn(4) > 0 {
				hi = pick()
			}
			var want []string
			for _, k := range sorted() {
				if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
					want = append(want, k)
				}
			}
			var got []string
			for it := tr.Scan(lo, hi); it.Valid(); it.Next() {
				if v := ref[string(it.Key())]; it.Value() != v {
					t.Fatalf("step %d: Scan value of %q = %d, want %d", step, it.Key(), it.Value(), v)
				}
				got = append(got, string(it.Key()))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Scan(%q, %q) = %q, want %q", step, lo, hi, got, want)
			}
		case (grow && r < 8) || (!grow && r < 4):
			k, v := pick(), rng.Int63()
			_, had := ref[string(k)]
			if tr.Set(k, v) == had {
				t.Fatalf("step %d: Set(%q) inserted = %v with key present = %v", step, k, !had, had)
			}
			ref[string(k)] = v
		default:
			k := pick()
			_, had := ref[string(k)]
			if tr.Delete(k) != had {
				t.Fatalf("step %d: Delete(%q) = %v, want %v", step, k, !had, had)
			}
			delete(ref, string(k))
		}
		if err := tr.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len() = %d, ref %d", step, tr.Len(), len(ref))
		}
	}
	for _, k := range pool {
		v, ok := tr.Get(k)
		if rv, rok := ref[string(k)]; ok != rok || v != rv {
			t.Fatalf("Get(%q) = %d,%v; want %d,%v", k, v, ok, rv, rok)
		}
	}
	if ks := sorted(); len(ks) > 0 {
		if string(tr.Min()) != ks[0] || string(tr.Max()) != ks[len(ks)-1] {
			t.Fatalf("Min, Max = %q, %q; want %q, %q", tr.Min(), tr.Max(), ks[0], ks[len(ks)-1])
		}
	}
	for _, k := range sorted() {
		if !tr.Delete([]byte(k)) {
			t.Fatalf("Delete(%q) = false", k)
		}
		if err := tr.check(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d after deleting every key", tr.Len())
	}
}

// TestTreeHoldsNoPerKeyObjects pins what keeps the engine's indexes cheap
// for the garbage collector: a node packs its keys into one buffer, so a
// tree of 100,000 keys adds a few objects per node, not one per key (about
// 107,000 when every key was its own allocation).
func TestTreeHoldsNoPerKeyObjects(t *testing.T) {
	const n = 100000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	var buf []byte
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New(DefaultOrder)
	for _, i := range perm {
		buf = fmt.Appendf(buf[:0], "key-%08d", i)
		tr.Set(buf, int64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	added := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("a tree of %d keys added %d heap objects", n, added)
	if added >= 15000 {
		t.Fatalf("a tree of %d keys added %d heap objects, want < 15000", n, added)
	}
}

// benchKeys renders n distinct keys, shuffled, ahead of the timer, so the
// benchmarks time the tree and not the key formatting.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for j, i := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[j] = key(i)
	}
	return keys
}

// BenchmarkTreeLookup gets keys of a 100,000-key tree in shuffled order, as
// the engine's index lookups arrive: in key order, one leaf would stay in
// cache for dozens of lookups in a row.
func BenchmarkTreeLookup(b *testing.B) {
	keys := benchKeys(100000)
	tr := New(DefaultOrder)
	for i, k := range keys {
		tr.Set(k, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupSink, _ = tr.Get(keys[i%len(keys)])
	}
}

// lookupSink keeps BenchmarkTreeLookup's calls from being optimized away.
var lookupSink int64

// BenchmarkTreeInsert fills trees of up to 100,000 keys in shuffled order.
func BenchmarkTreeInsert(b *testing.B) {
	keys := benchKeys(100000)
	var tr *Tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			b.StopTimer()
			tr = New(DefaultOrder)
			b.StartTimer()
		}
		tr.Set(keys[j], int64(i))
	}
}

// BenchmarkTreeScanPrefix is the SQL engine's index equality lookup: Scan
// from a one-column prefix and walk while keys carry it, over two-column
// keys in the engine's integer encoding (a tag byte, then the value
// big-endian with its sign bit flipped): 5,000 prefixes of 20 keys each.
func BenchmarkTreeScanPrefix(b *testing.B) {
	const prefixes, rows = 5000, 20
	col := func(dst []byte, v int) []byte {
		return binary.BigEndian.AppendUint64(append(dst, 0x01), uint64(v)^1<<63)
	}
	tr := New(DefaultOrder)
	for pk := 0; pk < prefixes*rows; pk++ {
		tr.Set(col(col(nil, pk%prefixes), pk), int64(pk))
	}
	lookups := make([][]byte, prefixes)
	for j, p := range rand.New(rand.NewSource(1)).Perm(prefixes) {
		lookups[j] = col(nil, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		prefix := lookups[i%prefixes]
		for it := tr.Scan(prefix, nil); it.Valid() && bytes.HasPrefix(it.Key(), prefix); it.Next() {
			n++
		}
	}
	if n != b.N*rows {
		b.Fatalf("scanned %d keys in %d lookups, want %d each", n, b.N, rows)
	}
}
