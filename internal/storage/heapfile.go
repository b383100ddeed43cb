package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Slotted-page layout:
//
//	offset 0: uint16 numSlots
//	offset 2: uint16 freeHigh   (start of the record data region)
//	offset 4: slot directory, 4 bytes per slot: uint16 recOff, uint16 recLen
//
// Record data is packed downward from the end of the page; the slot
// directory grows upward. recOff == 0 marks a deleted slot (live records can
// never start at offset 0, the header lives there).
const (
	pageHeaderSize = 4
	slotSize       = 4
)

// MaxRecordSize is the largest record a heap file accepts.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize

// ErrRecordTooLarge is returned for records exceeding MaxRecordSize.
var ErrRecordTooLarge = errors.New("storage: record too large")

// ErrRecordNotFound is returned when a RecordID does not name a live record.
var ErrRecordNotFound = errors.New("storage: record not found")

// RecordID names a record in a heap file. IDs are NOT stable across Update;
// callers (the sqldb table) keep their own rowid -> RecordID mapping.
type RecordID struct {
	Page PageID
	Slot uint16
}

// String implements fmt.Stringer.
func (r RecordID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// HeapFile stores variable-length records in slotted pages backed by a
// buffer pool. Concurrent readers (AppendRecord/Scan) are safe with each
// other; mutations (Insert/Update/Delete) require external exclusion against
// all other operations — the sqldb engine provides it with table-level locks.
type HeapFile struct {
	mu    sync.Mutex
	disk  *Disk
	pool  *BufferPool
	pages []PageID
	// free tracks contiguous free bytes per page index so Insert can pick a
	// page without pinning every page.
	free []int
}

// NewHeapFile creates an empty heap file on disk/pool.
func NewHeapFile(disk *Disk, pool *BufferPool) *HeapFile {
	return &HeapFile{disk: disk, pool: pool}
}

func pageNumSlots(p []byte) uint16 { return binary.LittleEndian.Uint16(p[0:2]) }
func pageFreeHigh(p []byte) uint16 { return binary.LittleEndian.Uint16(p[2:4]) }
func setPageNumSlots(p []byte, n uint16) {
	binary.LittleEndian.PutUint16(p[0:2], n)
}
func setPageFreeHigh(p []byte, v uint16) {
	binary.LittleEndian.PutUint16(p[2:4], v)
}
func slotAt(p []byte, i uint16) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p[base : base+2]), binary.LittleEndian.Uint16(p[base+2 : base+4])
}
func setSlotAt(p []byte, i uint16, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], off)
	binary.LittleEndian.PutUint16(p[base+2:base+4], length)
}

// contiguousFree returns the free bytes between the slot directory and the
// record data region, assuming one more slot entry will be needed.
func contiguousFree(p []byte) int {
	n := int(pageNumSlots(p))
	freeLow := pageHeaderSize + n*slotSize
	freeHigh := int(pageFreeHigh(p))
	if freeHigh == 0 {
		freeHigh = PageSize
	}
	return freeHigh - freeLow
}

// totalFree returns the reclaimable free bytes on the page: the contiguous
// region plus holes left by deletes and updates, which compaction can
// recover.
func totalFree(p []byte) int {
	n := int(pageNumSlots(p))
	freeLow := pageHeaderSize + n*slotSize
	live := 0
	for i := uint16(0); i < uint16(n); i++ {
		if off, length := slotAt(p, i); off != 0 {
			live += int(length)
		}
	}
	return PageSize - freeLow - live
}

// Insert appends rec and returns its RecordID.
func (h *HeapFile) Insert(rec []byte) (RecordID, error) {
	if len(rec) > MaxRecordSize {
		return RecordID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	need := len(rec) + slotSize
	var (
		p       []byte
		pid     PageID
		pageIdx int
	)
	for {
		h.mu.Lock()
		pageIdx = -1
		for i := len(h.free) - 1; i >= 0; i-- {
			if h.free[i] >= need {
				pageIdx = i
				break
			}
		}
		if pageIdx == -1 {
			id := h.disk.Allocate()
			h.pages = append(h.pages, id)
			h.free = append(h.free, PageSize-pageHeaderSize)
			pageIdx = len(h.pages) - 1
		}
		pid = h.pages[pageIdx]
		h.mu.Unlock()

		var err error
		p, err = h.pool.Pin(pid)
		if err != nil {
			return RecordID{}, err
		}
		if contiguousFree(p) < need {
			compactPage(p)
		}
		if contiguousFree(p) >= need {
			break
		}
		// The free estimate was stale (a concurrent insert won the space);
		// fix it and pick another page.
		h.mu.Lock()
		h.free[pageIdx] = totalFree(p)
		h.mu.Unlock()
		h.pool.Unpin(pid, true) // compaction may have dirtied the page
	}
	defer h.pool.Unpin(pid, true)

	numSlots := pageNumSlots(p)
	freeHigh := pageFreeHigh(p)
	if freeHigh == 0 {
		freeHigh = PageSize
	}
	// Reuse a tombstoned slot if one exists, else append a new one.
	slot := numSlots
	for i := uint16(0); i < numSlots; i++ {
		if off, _ := slotAt(p, i); off == 0 {
			slot = i
			break
		}
	}
	newHigh := freeHigh - uint16(len(rec))
	copy(p[newHigh:freeHigh], rec)
	setPageFreeHigh(p, newHigh)
	setSlotAt(p, slot, newHigh, uint16(len(rec)))
	if slot == numSlots {
		setPageNumSlots(p, numSlots+1)
	}

	h.mu.Lock()
	h.free[pageIdx] = totalFree(p)
	h.mu.Unlock()
	return RecordID{Page: pid, Slot: slot}, nil
}

// compactPage repacks live records to the end of the page, reclaiming holes
// left by deletes and in-place updates. It copies from one stack copy of the
// page, so it allocates nothing.
func compactPage(p []byte) {
	var old [PageSize]byte
	copy(old[:], p)
	high := uint16(PageSize)
	for i := uint16(0); i < pageNumSlots(p); i++ {
		off, length := slotAt(p, i)
		if off == 0 {
			continue
		}
		high -= length
		copy(p[high:], old[off:off+length])
		setSlotAt(p, i, high, length)
	}
	setPageFreeHigh(p, high)
}

// AppendRecord appends the record named by rid to dst, copying it while its
// page is pinned, and returns the extended slice.
func (h *HeapFile) AppendRecord(dst []byte, rid RecordID) ([]byte, error) {
	p, err := h.pool.Pin(rid.Page)
	if err != nil {
		return dst, err
	}
	defer h.pool.Unpin(rid.Page, false)
	if rid.Slot >= pageNumSlots(p) {
		return dst, fmt.Errorf("%w: %s", ErrRecordNotFound, rid)
	}
	off, length := slotAt(p, rid.Slot)
	if off == 0 {
		return dst, fmt.Errorf("%w: %s", ErrRecordNotFound, rid)
	}
	return append(dst, p[off:off+length]...), nil
}

// Delete tombstones the record named by rid.
func (h *HeapFile) Delete(rid RecordID) error {
	p, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(rid.Page, true)
	if rid.Slot >= pageNumSlots(p) {
		return fmt.Errorf("%w: %s", ErrRecordNotFound, rid)
	}
	off, _ := slotAt(p, rid.Slot)
	if off == 0 {
		return fmt.Errorf("%w: %s", ErrRecordNotFound, rid)
	}
	setSlotAt(p, rid.Slot, 0, 0)
	h.noteFree(rid.Page, p)
	return nil
}

// Update replaces the record named by rid with rec, returning the record's
// possibly-new ID (records that no longer fit on their page move).
func (h *HeapFile) Update(rid RecordID, rec []byte) (RecordID, error) {
	if len(rec) > MaxRecordSize {
		return RecordID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	p, err := h.pool.Pin(rid.Page)
	if err != nil {
		return RecordID{}, err
	}
	if rid.Slot >= pageNumSlots(p) {
		h.pool.Unpin(rid.Page, false)
		return RecordID{}, fmt.Errorf("%w: %s", ErrRecordNotFound, rid)
	}
	off, length := slotAt(p, rid.Slot)
	if off == 0 {
		h.pool.Unpin(rid.Page, false)
		return RecordID{}, fmt.Errorf("%w: %s", ErrRecordNotFound, rid)
	}
	if len(rec) <= int(length) {
		// Shrinking or same-size update fits in place.
		copy(p[off:], rec)
		setSlotAt(p, rid.Slot, off, uint16(len(rec)))
		h.noteFree(rid.Page, p)
		h.pool.Unpin(rid.Page, true)
		return rid, nil
	}
	if contiguousFree(p) < len(rec) && totalFree(p) >= len(rec) {
		compactPage(p)
		// Compaction moved our record; re-read its offset.
		off, _ = slotAt(p, rid.Slot)
	}
	if contiguousFree(p) >= len(rec) {
		freeHigh := pageFreeHigh(p)
		newHigh := freeHigh - uint16(len(rec))
		copy(p[newHigh:freeHigh], rec)
		setPageFreeHigh(p, newHigh)
		setSlotAt(p, rid.Slot, newHigh, uint16(len(rec)))
		h.noteFree(rid.Page, p)
		h.pool.Unpin(rid.Page, true)
		return rid, nil
	}
	// Does not fit on this page: delete here, insert elsewhere.
	setSlotAt(p, rid.Slot, 0, 0)
	h.noteFree(rid.Page, p)
	h.pool.Unpin(rid.Page, true)
	return h.Insert(rec)
}

// noteFree refreshes the free-space estimate for page pid. Caller has the
// page pinned.
func (h *HeapFile) noteFree(pid PageID, p []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, id := range h.pages {
		if id == pid {
			h.free[i] = totalFree(p)
			return
		}
	}
}

// Scan calls fn for every live record, in page order, until fn returns
// false. fn runs with the record's page pinned: data aliases the page, is
// valid only until fn returns, and fn must not modify the heap file.
func (h *HeapFile) Scan(fn func(rid RecordID, data []byte) bool) error {
	h.mu.Lock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.Unlock()
	for _, pid := range pages {
		p, err := h.pool.Pin(pid)
		if err != nil {
			return err
		}
		more := true
		for i := uint16(0); more && i < pageNumSlots(p); i++ {
			if off, length := slotAt(p, i); off != 0 {
				more = fn(RecordID{Page: pid, Slot: i}, p[off:off+length])
			}
		}
		h.pool.Unpin(pid, false)
		if !more {
			return nil
		}
	}
	return nil
}

// NumPages reports how many pages the heap file spans.
func (h *HeapFile) NumPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}
