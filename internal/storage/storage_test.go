package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func newTestDisk() *Disk {
	return NewDisk(nil)
}

func TestDiskReadWrite(t *testing.T) {
	d := newTestDisk()
	id := d.Allocate()
	buf := make([]byte, PageSize)
	copy(buf, []byte("hello pages"))
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("read back different bytes")
	}
	if err := d.Read(PageID(999), got); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("Read(999) err = %v, want ErrPageNotFound", err)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDiskChargesLatency: the access hook, where a device cost is charged,
// runs once per read and once per write, and never for an allocation.
func TestDiskChargesLatency(t *testing.T) {
	var accesses atomic.Int64
	d := NewDisk(func() { accesses.Add(1) })
	id := d.Allocate()
	buf := make([]byte, PageSize)
	_ = d.Write(id, buf)
	_ = d.Read(id, buf)
	if got := accesses.Load(); got != 2 {
		t.Fatalf("hook ran %d times, want 2", got)
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	d := newTestDisk()
	bp := NewBufferPool(d, 2)
	a, b, c := d.Allocate(), d.Allocate(), d.Allocate()

	p, err := bp.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	p[100] = 42
	bp.Unpin(a, true)

	if _, err := bp.Pin(a); err != nil { // hit
		t.Fatal(err)
	}
	bp.Unpin(a, false)

	if _, err := bp.Pin(b); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(b, false)
	if _, err := bp.Pin(c); err != nil { // evicts a (LRU), which is dirty
		t.Fatal(err)
	}
	bp.Unpin(c, false)

	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Page a must have been written back: re-pin and check the byte.
	p, err = bp.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	if p[100] != 42 {
		t.Fatal("dirty page lost on eviction")
	}
	bp.Unpin(a, false)
}

func TestBufferPoolAllPinned(t *testing.T) {
	d := newTestDisk()
	bp := NewBufferPool(d, 1)
	a, b := d.Allocate(), d.Allocate()
	if _, err := bp.Pin(a); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Pin(b); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	bp.Unpin(a, false)
	if _, err := bp.Pin(b); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(b, false)
}

func TestBufferPoolResize(t *testing.T) {
	d := newTestDisk()
	bp := NewBufferPool(d, 4)
	for i := 0; i < 4; i++ {
		id := d.Allocate()
		if _, err := bp.Pin(id); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, false)
	}
	if bp.Resident() != 4 {
		t.Fatalf("resident = %d", bp.Resident())
	}
	if err := bp.Resize(2); err != nil {
		t.Fatal(err)
	}
	if bp.Resident() != 2 {
		t.Fatalf("after resize resident = %d", bp.Resident())
	}
}

func TestBufferPoolConcurrentSamePage(t *testing.T) {
	d := newTestDisk()
	id := d.Allocate()
	buf := make([]byte, PageSize)
	buf[0] = 7
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(d, 8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := bp.Pin(id)
			if err != nil {
				t.Error(err)
				return
			}
			if p[0] != 7 {
				t.Errorf("read %d, want 7", p[0])
			}
			bp.Unpin(id, false)
		}()
	}
	wg.Wait()
}

func newTestHeap() *HeapFile {
	d := newTestDisk()
	return NewHeapFile(d, NewBufferPool(d, 64))
}

func TestHeapInsertGet(t *testing.T) {
	h := newTestHeap()
	rid, err := h.Insert([]byte("record one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "record one" {
		t.Fatalf("got %q", got)
	}
}

func TestHeapDelete(t *testing.T) {
	h := newTestHeap()
	rid, _ := h.Insert([]byte("doomed"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("Get after delete err = %v", err)
	}
	if err := h.Delete(rid); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestHeapUpdateInPlaceAndMove(t *testing.T) {
	h := newTestHeap()
	rid, _ := h.Insert(bytes.Repeat([]byte("a"), 100))
	// Shrinking update stays put.
	nrid, err := h.Update(rid, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Fatalf("shrinking update moved record: %v -> %v", rid, nrid)
	}
	got, _ := h.Get(nrid)
	if string(got) != "tiny" {
		t.Fatalf("got %q", got)
	}
	// Growing update still fits on the page.
	nrid2, err := h.Update(nrid, bytes.Repeat([]byte("b"), 500))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = h.Get(nrid2)
	if len(got) != 500 || got[0] != 'b' {
		t.Fatalf("grown record wrong: len=%d", len(got))
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h := newTestHeap()
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestHeapPageOverflowAllocatesNewPage(t *testing.T) {
	h := newTestHeap()
	rec := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 10; i++ {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 4 {
		t.Fatalf("expected several pages, got %d", h.NumPages())
	}
	// All ten records must be scannable.
	n := 0
	if err := h.Scan(func(rid RecordID, data []byte) bool {
		if len(data) != 3000 {
			t.Errorf("scan got %d-byte record", len(data))
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scanned %d records, want 10", n)
	}
}

func TestHeapSlotReuseAfterDelete(t *testing.T) {
	h := newTestHeap()
	rid1, _ := h.Insert([]byte("first"))
	_ = h.Delete(rid1)
	rid2, _ := h.Insert([]byte("second"))
	if rid2.Page != rid1.Page || rid2.Slot != rid1.Slot {
		t.Fatalf("tombstoned slot not reused: %v vs %v", rid1, rid2)
	}
}

func TestHeapCompaction(t *testing.T) {
	h := newTestHeap()
	// Fill a page with ~26 records of ~300 bytes, delete every other one,
	// then insert a record that only fits after compaction.
	var rids []RecordID
	rec := bytes.Repeat([]byte("z"), 300)
	for i := 0; i < 26; i++ {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumPages() != 1 {
		t.Fatalf("setup expected 1 page, got %d", h.NumPages())
	}
	for i := 0; i < len(rids); i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), 2000)
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != 1 {
		t.Fatalf("compaction should have made room on page 0; pages = %d", h.NumPages())
	}
	got, _ := h.Get(rid)
	if !bytes.Equal(got, big) {
		t.Fatal("record corrupted by compaction")
	}
	// Survivors must be intact too.
	for i := 1; i < len(rids); i += 2 {
		got, err := h.Get(rids[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("survivor %d corrupted: %v", i, err)
		}
	}
}

// TestHeapRandomOps drives the heap against a reference map.
func TestHeapRandomOps(t *testing.T) {
	h := newTestHeap()
	rng := rand.New(rand.NewSource(11))
	ref := map[RecordID][]byte{}
	var ids []RecordID
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			rec := make([]byte, 1+rng.Intn(400))
			rng.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := ref[rid]; dup {
				t.Fatalf("step %d: duplicate live rid %v", step, rid)
			}
			ref[rid] = rec
			ids = append(ids, rid)
		case op < 8 && len(ids) > 0: // update
			i := rng.Intn(len(ids))
			rid := ids[i]
			if _, ok := ref[rid]; !ok {
				continue
			}
			rec := make([]byte, 1+rng.Intn(600))
			rng.Read(rec)
			nrid, err := h.Update(rid, rec)
			if err != nil {
				t.Fatal(err)
			}
			delete(ref, rid)
			if _, dup := ref[nrid]; dup {
				t.Fatalf("step %d: update moved onto live rid %v", step, nrid)
			}
			ref[nrid] = rec
			ids[i] = nrid
		case len(ids) > 0: // delete
			i := rng.Intn(len(ids))
			rid := ids[i]
			if _, ok := ref[rid]; !ok {
				continue
			}
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(ref, rid)
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
	}
	// Verify every live record via Get and via Scan.
	for rid, want := range ref {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) wrong bytes", rid)
		}
	}
	seen := 0
	_ = h.Scan(func(rid RecordID, data []byte) bool {
		want, ok := ref[rid]
		if !ok {
			t.Fatalf("Scan found unknown rid %v", rid)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("Scan(%v) wrong bytes", rid)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Scan saw %d records, want %d", seen, len(ref))
	}
}

// Property: inserting any batch of records and reading them back returns the
// same bytes, regardless of sizes.
func TestQuickHeapRoundTrip(t *testing.T) {
	f := func(sizes []uint16) bool {
		h := newTestHeap()
		type pair struct {
			rid RecordID
			rec []byte
		}
		var pairs []pair
		for i, s := range sizes {
			n := int(s) % MaxRecordSize
			rec := bytes.Repeat([]byte{byte(i)}, n)
			rid, err := h.Insert(rec)
			if err != nil {
				return false
			}
			pairs = append(pairs, pair{rid, rec})
		}
		for _, p := range pairs {
			got, err := h.Get(p.rid)
			if err != nil || !bytes.Equal(got, p.rec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolMissLatencyContention(t *testing.T) {
	// 4 concurrent readers of distinct cold pages each reach the device, and
	// so its access hook, exactly once: the pool releases its lock for the
	// read, so the hook sees the misses concurrently (how many it admits at
	// once is the hook's business; the experiment harness queues them).
	var accesses atomic.Int64
	d := NewDisk(func() { accesses.Add(1) })
	bp := NewBufferPool(d, 8)
	ids := []PageID{d.Allocate(), d.Allocate(), d.Allocate(), d.Allocate()}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id PageID) {
			defer wg.Done()
			if _, err := bp.Pin(id); err != nil {
				t.Error(err)
				return
			}
			bp.Unpin(id, false)
		}(id)
	}
	wg.Wait()
	if got := accesses.Load(); got != 4 {
		t.Fatalf("disk charged %d times, want 4", got)
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	h := newTestHeap()
	rec := bytes.Repeat([]byte("r"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapGet(b *testing.B) {
	h := newTestHeap()
	rec := bytes.Repeat([]byte("r"), 128)
	var rids []RecordID
	for i := 0; i < 1000; i++ {
		rid, _ := h.Insert(rec)
		rids = append(rids, rid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Get(rids[i%len(rids)]); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt imported for debugging helpers
