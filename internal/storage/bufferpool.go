package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// ErrPoolFull is returned when every frame in the pool is pinned and a new
// page must be brought in.
var ErrPoolFull = errors.New("storage: buffer pool full (all frames pinned)")

// PoolStats are cumulative counters for a BufferPool.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64
}

// frame is one buffer-pool slot.
type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	lru   *list.Element // position in the LRU list when unpinned
	ready chan struct{} // closed once the disk read has populated data
	err   error         // read error, valid after ready is closed
}

// BufferPool caches disk pages in a fixed number of frames with LRU
// replacement. Pages pinned by callers are never evicted. The pool is safe
// for concurrent use.
//
// The pool's capacity is the knob the experiment harness turns for the
// "memcached colocated with the database" variant of Experiment 4: giving
// memory to the cache shrinks the DB's pool and raises its miss rate.
type BufferPool struct {
	mu       sync.Mutex
	disk     *Disk
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // of PageID, front = most recent
	stats    PoolStats
}

// NewBufferPool creates a pool with room for capacity pages (minimum 1) on
// top of disk.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
}

// Capacity returns the pool's frame count.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Resize changes the pool capacity, evicting unpinned pages if it shrinks.
func (bp *BufferPool) Resize(capacity int) error {
	if capacity < 1 {
		capacity = 1
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.capacity = capacity
	for len(bp.frames) > bp.capacity {
		if err := bp.evictLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Pin fetches page id into the pool, pins it, and returns its data buffer.
// The caller must Unpin it exactly once. The buffer may only be accessed
// between Pin and Unpin.
func (bp *BufferPool) Pin(id PageID) ([]byte, error) {
	bp.mu.Lock()
	if f, ok := bp.frames[id]; ok {
		f.pins++
		if f.lru != nil {
			bp.lru.Remove(f.lru)
			f.lru = nil
		}
		bp.stats.Hits++
		bp.mu.Unlock()
		// Another goroutine may still be filling this frame from disk.
		<-f.ready
		if f.err != nil {
			bp.Unpin(id, false)
			return nil, f.err
		}
		return f.data, nil
	}
	bp.stats.Misses++
	for len(bp.frames) >= bp.capacity {
		if err := bp.evictLocked(); err != nil {
			bp.mu.Unlock()
			return nil, err
		}
	}
	f := &frame{id: id, data: make([]byte, PageSize), pins: 1, ready: make(chan struct{})}
	bp.frames[id] = f
	// Release the pool lock during the disk read (its access hook may block)
	// so other goroutines aren't serialized behind it; the frame is already
	// pinned so it cannot be evicted, and late arrivals block on f.ready.
	bp.mu.Unlock()
	f.err = bp.disk.Read(id, f.data)
	close(f.ready)
	if f.err != nil {
		bp.Unpin(id, false)
		return nil, f.err
	}
	return f.data, nil
}

// Unpin releases one pin on page id. If dirty, the page is marked for
// write-back on eviction or flush.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("storage: Unpin of unpinned page %d", id))
	}
	f.dirty = f.dirty || dirty
	f.pins--
	if f.pins == 0 {
		f.lru = bp.lru.PushFront(f.id)
	}
}

// evictLocked removes the least-recently-used unpinned page, writing it back
// if dirty. Caller holds bp.mu.
func (bp *BufferPool) evictLocked() error {
	el := bp.lru.Back()
	if el == nil {
		return ErrPoolFull
	}
	id := el.Value.(PageID)
	f := bp.frames[id]
	bp.lru.Remove(el)
	delete(bp.frames, id)
	bp.stats.Evictions++
	if f.dirty {
		bp.stats.Flushes++
		// The write-back must complete before anyone can re-Pin this page
		// (they would read stale bytes from disk), so it happens under the
		// pool lock. Eviction is rare when the hot set fits in the pool.
		if err := bp.disk.Write(id, f.data); err != nil {
			return err
		}
	}
	return nil
}

// FlushAll writes every dirty resident page back to disk.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	var dirty []*frame
	for _, f := range bp.frames {
		if f.dirty {
			dirty = append(dirty, f)
			f.dirty = false
		}
	}
	bp.mu.Unlock()
	for _, f := range dirty {
		if err := bp.disk.Write(f.id, f.data); err != nil {
			return err
		}
		bp.mu.Lock()
		bp.stats.Flushes++
		bp.mu.Unlock()
	}
	return nil
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the counters (used between experiment phases).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = PoolStats{}
}

// Resident reports how many pages are currently in the pool.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
