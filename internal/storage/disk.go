// Package storage implements the database engine's storage substrate: an
// in-memory block device, a pinning LRU buffer pool, and slotted-page heap
// files.
//
// The paper's evaluation depends on the database being disk-bound under the
// cached configurations (§5.4). The Disk type leaves the cost of a device
// access to its caller: an optional hook runs before every page read and
// write, which the experiment harness uses to charge a disk access through a
// bounded queue. Without a hook the device is free.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the size of every page in bytes.
const PageSize = 8192

// PageID identifies a page on disk. IDs are dense per Disk.
type PageID int64

// InvalidPage is a sentinel for "no page".
const InvalidPage PageID = -1

// ErrPageNotFound is returned when reading a page that was never allocated.
var ErrPageNotFound = errors.New("storage: page not found")

// DiskStats are cumulative counters for a Disk.
type DiskStats struct {
	Reads  int64
	Writes int64
	Allocs int64
}

// Disk is an in-memory block device. Every read and write first runs the
// device's access hook, if it has one.
type Disk struct {
	mu       sync.Mutex
	pages    map[PageID][]byte
	nextID   PageID
	stats    DiskStats
	onAccess func()
}

// NewDisk creates a disk. onAccess, when non-nil, runs before every page read
// and write, outside the disk's lock; it may block.
func NewDisk(onAccess func()) *Disk {
	return &Disk{pages: make(map[PageID][]byte), onAccess: onAccess}
}

// access runs the access hook.
func (d *Disk) access() {
	if d.onAccess != nil {
		d.onAccess()
	}
}

// Allocate reserves a fresh zeroed page and returns its ID. Allocation does
// not run the access hook (the page is born in memory, like extending a file
// in the OS page cache).
func (d *Disk) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	d.pages[id] = make([]byte, PageSize)
	d.stats.Allocs++
	return id
}

// Read copies page id into buf (which must be PageSize long).
func (d *Disk) Read(id PageID, buf []byte) error {
	d.access()
	d.mu.Lock()
	src, ok := d.pages[id]
	if ok {
		copy(buf, src)
		d.stats.Reads++
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	return nil
}

// Write stores buf as the contents of page id.
func (d *Disk) Write(id PageID, buf []byte) error {
	d.access()
	d.mu.Lock()
	dst, ok := d.pages[id]
	if ok {
		copy(dst, buf)
		d.stats.Writes++
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	return nil
}

// Stats returns a snapshot of the disk counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// NumPages reports how many pages have been allocated.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}
