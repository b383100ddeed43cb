package invbus

import (
	"sync"
	"testing"
	"time"
)

// item is what the tests publish: who published it and its place in that
// publisher's sequence.
type item struct{ from, seq int }

// recorder is an apply that records every window it is handed. keys, when
// set, is what it reports the window wrote; otherwise every item is a key.
type recorder struct {
	mu      sync.Mutex
	windows [][]item
	keys    func([]item) int
	// block, when set, parks the apply of the window holding an item with
	// from == -1, after closing entered.
	block, entered chan struct{}
}

func (r *recorder) apply(w []item) int {
	r.mu.Lock()
	r.windows = append(r.windows, append([]item(nil), w...))
	r.mu.Unlock()
	if r.block != nil && len(w) > 0 && w[0].from == -1 {
		close(r.entered)
		<-r.block
	}
	if r.keys != nil {
		return r.keys(w)
	}
	return len(w)
}

func (r *recorder) items() []item {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []item
	for _, w := range r.windows {
		all = append(all, w...)
	}
	return all
}

// stalled returns a bus whose worker is parked inside the apply of a first
// window, so what is published next queues up behind it until release is
// closed.
func stalled(t *testing.T, r *recorder) (bus *Bus[item], release chan struct{}) {
	t.Helper()
	r.block, r.entered = make(chan struct{}), make(chan struct{})
	bus = New(time.Hour, r.apply)
	bus.Publish([]item{{from: -1}})
	go bus.Flush() // closes the first window; returns once it is released
	<-r.entered
	return bus, r.block
}

// publishConcurrently has 8 publishers publish 200 two-item lists each,
// flushing now and then, and closes the bus.
func publishConcurrently(bus *Bus[item]) (publishers, lists int) {
	publishers, lists = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < lists; i++ {
				// Two items per list: a statement's ops travel as one unit.
				bus.Publish([]item{{p, 2 * i}, {p, 2*i + 1}})
				if i%50 == 0 {
					bus.Flush()
				}
			}
		}(p)
	}
	wg.Wait()
	bus.Close()
	return publishers, lists
}

// One worker applies every publisher's items in the order it published them.
func TestPerKeyFIFOOrdering(t *testing.T) {
	r := &recorder{}
	publishers, lists := publishConcurrently(New(time.Millisecond, r.apply))
	next := make([]int, publishers)
	for _, it := range r.items() {
		if it.seq != next[it.from] {
			t.Fatalf("publisher %d: item %d applied when %d was due", it.from, it.seq, next[it.from])
		}
		next[it.from]++
	}
	for p, n := range next {
		if n != 2*lists {
			t.Fatalf("publisher %d: %d items applied, want %d", p, n, 2*lists)
		}
	}
}

func TestConcurrentPublishersDrainFully(t *testing.T) {
	r := &recorder{keys: func(w []item) int { return len(w) / 2 }}
	bus := New(time.Millisecond, r.apply)
	publishers, lists := publishConcurrently(bus)
	st := bus.Stats()
	if want := int64(publishers * lists * 2); st.Enqueued != want || len(r.items()) != int(want) {
		t.Fatalf("enqueued %d, applied %d items, want %d", st.Enqueued, len(r.items()), want)
	}
	if st.Applied+st.Coalesced != st.Enqueued || st.Coalesced == 0 {
		t.Fatalf("applied %d + coalesced %d != enqueued %d", st.Applied, st.Coalesced, st.Enqueued)
	}
}

func TestFlushDrainsEverythingPublishedBefore(t *testing.T) {
	r := &recorder{}
	bus := New(time.Hour, r.apply)
	defer bus.Close()
	const n = 200
	for i := 0; i < n; i++ {
		bus.Publish([]item{{0, i}})
	}
	done := make(chan struct{})
	go func() {
		bus.Flush() // must not wait out the hour-long window
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush waited for the window to close")
	}
	if got := len(r.items()); got != n {
		t.Fatalf("after Flush: %d items applied, want %d", got, n)
	}
	// The barrier closed the window early: one window held all of them.
	if st := bus.Stats(); st.Flushes != 1 || st.MaxBatch != n {
		t.Fatalf("flushes = %d, max batch = %d, want 1 and %d", st.Flushes, st.MaxBatch, n)
	}
}

func TestCloseDrainsAndFallsBackToSync(t *testing.T) {
	r := &recorder{}
	bus := New(time.Hour, r.apply)
	for i := 0; i < 50; i++ {
		bus.Publish([]item{{0, i}})
	}
	bus.Close()
	if got := len(r.items()); got != 50 {
		t.Fatalf("Close left %d of 50 items applied", got)
	}
	// A list published after Close is applied before Publish returns.
	bus.Publish([]item{{0, 50}})
	if all := r.items(); len(all) != 51 || all[50].seq != 50 {
		t.Fatalf("post-Close publish was not applied inline: %v", all[len(all)-1])
	}
	bus.Flush() // harmless after Close
	bus.Close() // idempotent
}

// Lists that pile up behind a busy worker leave in one window, so whatever an
// exchange with the cache costs is paid once for all of them.
func TestAsyncAmortizesConnectCost(t *testing.T) {
	r := &recorder{}
	bus, release := stalled(t, r)
	defer bus.Close()
	for i := 0; i < 100; i++ {
		bus.Publish([]item{{0, i}})
	}
	close(release)
	bus.Flush()
	if st := bus.Stats(); st.Flushes != 2 || st.MaxBatch != 100 {
		t.Fatalf("flushes = %d, max batch = %d, want 2 and 100", st.Flushes, st.MaxBatch)
	}
}

// fillQueue stalls the worker and publishes queueDepth lists behind it, then
// one more from another goroutine, which must block; unblocked closes when
// that Publish returns.
func fillQueue(t *testing.T, r *recorder) (bus *Bus[item], release, unblocked chan struct{}) {
	t.Helper()
	bus, release = stalled(t, r)
	for i := 0; i < queueDepth; i++ {
		bus.Publish([]item{{0, i}})
	}
	if st := bus.Stats(); st.QueueFullStalls != 0 || st.StallTime != 0 {
		t.Fatalf("filling the queue stalled: %+v", st)
	}
	unblocked = make(chan struct{})
	go func() {
		bus.Publish([]item{{0, queueDepth}})
		close(unblocked)
	}()
	return bus, release, unblocked
}

func TestBackpressureBlocksPublishOnFullQueue(t *testing.T) {
	r := &recorder{}
	bus, release, unblocked := fillQueue(t, r)
	defer bus.Close()
	select {
	case <-unblocked:
		t.Fatal("publish did not block on the full queue")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("publish never unblocked after the worker drained")
	}
	bus.Flush()
	if all := r.items(); len(all) != queueDepth+2 || all[len(all)-1].seq != queueDepth {
		t.Fatalf("%d items applied, want %d ending with the backpressured one", len(all), queueDepth+2)
	}
}

func TestStatsCountQueueFullStalls(t *testing.T) {
	r := &recorder{}
	bus, release, unblocked := fillQueue(t, r)
	defer bus.Close()
	// The stall counter increments before the publisher parks, so the park
	// can be waited for.
	deadline := time.Now().Add(2 * time.Second)
	for bus.Stats().QueueFullStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("publisher never stalled on the full queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-unblocked
	bus.Flush()
	if st := bus.Stats(); st.QueueFullStalls != 1 || st.StallTime <= 0 {
		t.Fatalf("stalls = %d over %v, want 1 over > 0", st.QueueFullStalls, st.StallTime)
	}
}

// MaxLag runs from a list's publish to the end of its window's apply, so it
// includes the time the apply waits on the cache.
func TestStatsTrackLagAndFlushes(t *testing.T) {
	const applyTime = 20 * time.Millisecond
	r := &recorder{keys: func(w []item) int {
		time.Sleep(applyTime)
		keys := map[int]bool{}
		for _, it := range w {
			keys[it.seq] = true
		}
		return len(keys)
	}}
	bus := New(time.Hour, r.apply) // the Flush below closes the window
	defer bus.Close()
	// Three items on two keys in one window: two keys written, one coalesced.
	bus.Publish([]item{{0, 1}, {0, 2}})
	bus.Publish([]item{{0, 1}})
	bus.Flush()
	st := bus.Stats()
	if st.Enqueued != 3 || st.Applied != 2 || st.Coalesced != 1 {
		t.Fatalf("enqueued/applied/coalesced = %d/%d/%d, want 3/2/1", st.Enqueued, st.Applied, st.Coalesced)
	}
	if st.Flushes != 1 || st.MaxBatch != 3 {
		t.Fatalf("flushes = %d, max batch = %d, want 1 and 3", st.Flushes, st.MaxBatch)
	}
	if st.MaxLag < applyTime {
		t.Fatalf("max lag = %v, want at least the %v apply", st.MaxLag, applyTime)
	}
}
