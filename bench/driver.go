package bench

import (
	"errors"
	"slices"
	"sync"
	"time"

	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
)

// numPageTypes sizes per-type arrays; PageAcceptFR is the last type.
const numPageTypes = int(social.PageAcceptFR) + 1

func pageTypeName(op uint8) string { return social.PageType(op).String() }

// pass describes one driver pass: fixed work, sessions sessions per client,
// so both sides of a comparison run the identical page sequence and grow the
// same state.
type pass struct {
	clients  int
	sessions int
	// keep records per-page latencies (warm-up keeps only totals).
	keep bool
	// alternate switches the tracer on for even sessions and off for odd
	// ones, so traced and untraced pages share one window and the ratio of
	// their mean latencies carries no warm-up drift or GC-phase bias. It
	// needs clients == 1.
	alternate bool
}

// tracedBit marks a logged page that ran with the tracer on.
const tracedBit = 0x80

// clientLog is what one client keeps about its window. Latencies are exact
// nanosecond samples, so quantiles carry no bucket quantisation.
type clientLog struct {
	lat      []int64
	typ      []uint8
	pages    int
	failed   int
	retries  int
	firstErr error
}

// window is the merged outcome of one driver pass.
type window struct {
	pages    int
	failed   int
	retries  int
	firstErr error
	wall     time.Duration
	counts   [numPageTypes]int
	// read and write hold the sorted latencies of the paper's read pages
	// (LookupBM, LookupFBM) and write pages (CreateBM, AcceptFR).
	read, write []int64
	// tracedNs/tracedPages and plainNs/plainPages split every page's
	// latency by whether the tracer was on while it ran.
	tracedNs, plainNs       int64
	tracedPages, plainPages int
}

// runWindow drives closed-loop clients over the stack until the pass ends.
// Page spans are recorded here, around App.RunPage, when tracing is on.
func runWindow(st *stack, p pass) window {
	logs := make([]clientLog, p.clients)
	if p.keep {
		for i := range logs {
			// Sized once so the measured window does not grow slices.
			logs[i].lat = make([]int64, 0, 1<<18)
			logs[i].typ = make([]uint8, 0, 1<<18)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(gen *pageGen, log *clientLog) {
			defer wg.Done()
			for s := 0; s < p.sessions; s++ {
				var mark uint8
				if p.alternate {
					traced := s%2 == 0
					st.tr.on.Store(traced)
					if traced {
						mark = tracedBit
					}
				}
				for _, pg := range gen.session() {
					d, err := runPage(st, pg, log)
					log.pages++
					if err != nil {
						log.failed++
						if log.firstErr == nil {
							log.firstErr = err
						}
					}
					if p.keep {
						log.lat = append(log.lat, int64(d))
						log.typ = append(log.typ, uint8(pg.typ)|mark)
					}
				}
			}
		}(st.gens[c], &logs[c])
	}
	wg.Wait()
	if p.alternate {
		st.tr.on.Store(false)
	}
	return merge(logs, time.Since(start))
}

// runPage loads one page and times it, retry included.
func runPage(st *stack, p page, log *clientLog) (time.Duration, error) {
	t0 := time.Now()
	s0 := st.tr.begin()
	err := st.app.RunPage(p.typ, p.uid, p.seq)
	if err != nil && errors.Is(err, sqldb.ErrLockTimeout) {
		// Deadlock victim: one retry, the paper's timeout-based
		// resolution (§3.3).
		log.retries++
		err = st.app.RunPage(p.typ, p.uid, p.seq)
	}
	st.tr.end(s0, span{Layer: layerPage, Op: uint8(p.typ)})
	return time.Since(t0), err
}

func merge(logs []clientLog, wall time.Duration) window {
	w := window{wall: wall}
	for _, l := range logs {
		w.pages += l.pages
		w.failed += l.failed
		w.retries += l.retries
		if w.firstErr == nil {
			w.firstErr = l.firstErr
		}
		for i, d := range l.lat {
			t := social.PageType(l.typ[i] &^ tracedBit)
			w.counts[t]++
			if l.typ[i]&tracedBit != 0 {
				w.tracedNs += d
				w.tracedPages++
			} else {
				w.plainNs += d
				w.plainPages++
			}
			switch {
			case isRead(t):
				w.read = append(w.read, d)
			case isWrite(t):
				w.write = append(w.write, d)
			}
		}
	}
	slices.Sort(w.read)
	slices.Sort(w.write)
	return w
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between order statistics (0 for no samples).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i]) + frac*float64(sorted[i+1]-sorted[i])
}
