// Package hotkey detects disproportionately popular cache keys.
//
// Real social workloads are zipfian: one celebrity's bookmark list hashes
// to one shard of one node and caps the whole cluster. Before anything can
// spread or coalesce that traffic it has to be *noticed*, cheaply, on the
// read path itself — a detector that allocates or locks would cost more
// than the skew it measures.
//
// Detector is a count-min sketch with periodic decay: a small fixed grid
// of atomic counters, each observation incrementing one cell per row, the
// minimum over the rows estimating the key's count in the current window.
// Collisions only ever inflate the estimate, so the sketch can mistake a
// cold key for hot (harmless: a spread read of a cold key is just a read)
// but never lets a genuinely hot key hide. Every Window observations the
// cells are halved in place, so a key that cools off stops being flagged
// within about one window.
//
// Observe is allocation-free and lock-free; the decay sweep runs inline on
// the observation that crosses the window boundary (no background
// goroutine to own or stop) and races benignly with concurrent
// increments — a lost increment during the sweep is noise well inside the
// sketch's error bound.
package hotkey

import "sync/atomic"

const (
	rows    = 4
	cols    = 1024 // power of two so indexing is a mask, not a modulo
	colMask = cols - 1

	// cellCap saturates a cell instead of letting it wrap. With default
	// sizing a cell cannot exceed ~2 windows of increments between decays,
	// so the cap only matters for absurd Window values.
	cellCap = 1 << 30
)

// Defaults for Config's zero values.
const (
	// DefaultWindow is how many observations pass between decay sweeps.
	DefaultWindow = 8192
	// DefaultThreshold flags a key once its estimated count within the
	// current window reaches this value — 256/8192 is ~3% of all traffic
	// concentrated on one key, far above what a balanced ring sees per key
	// and far below what a zipf s=1.1 celebrity or a flash crowd produces.
	DefaultThreshold = 256
)

// Config sizes a Detector. The zero value picks the defaults.
type Config struct {
	// Window is the number of observations between decay sweeps; the
	// sketch estimates per-window counts. Default DefaultWindow.
	Window uint64
	// Threshold is the estimated per-window count at which a key is
	// flagged hot. Default DefaultThreshold.
	Threshold uint32
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	return c
}

// Stats counts detector activity; all fields are cumulative.
type Stats struct {
	// Observed is the total number of observations.
	Observed int64
	// Flagged is how many observations were judged hot at observation
	// time (per-access, not per-distinct-key — a key hot for a thousand
	// reads counts a thousand times, which is exactly the volume a
	// mitigation acts on).
	Flagged int64
	// Decays is how many decay sweeps have run.
	Decays int64
}

// Detector is a sampled count-min popularity sketch with decay. The zero
// value is not usable; build one with New.
type Detector struct {
	cfg   Config
	cells [rows * cols]atomic.Uint32
	// window counts observations since the last decay sweep.
	window   atomic.Uint64
	observed atomic.Int64
	flagged  atomic.Int64
	decays   atomic.Int64
}

// New builds a Detector; zero Config fields take the defaults.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Hash is an allocation-free FNV-1a over key with a murmur3-style
// finalizer — the same mixing the cluster ring uses for key placement, so
// callers that already routed a key can reuse one hash for both. It takes
// the wire server's parsed []byte keys as they are.
//
//genie:hotpath
func Hash[K ~string | ~[]byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Observe records one access to the key hashed to h (see Hash) and reports
// whether that key is currently flagged hot. Lock-free and allocation-free;
// safe for any number of concurrent callers.
//
//genie:hotpath
func (d *Detector) Observe(h uint64) bool {
	d.observed.Add(1)
	// Kirsch-Mitzenmacher: rows index with h1 + r*h2 instead of r
	// independent hashes; h is already finalizer-mixed so its halves are
	// independent enough.
	h2 := h>>32 | h<<32
	est := uint32(cellCap)
	for r := 0; r < rows; r++ {
		c := &d.cells[r*cols+int((h+uint64(r)*h2)&colMask)]
		v := c.Load()
		if v < cellCap {
			v = c.Add(1)
		}
		if v < est {
			est = v
		}
	}
	hot := est >= d.cfg.Threshold
	if hot {
		d.flagged.Add(1)
	}
	if d.window.Add(1) >= d.cfg.Window {
		d.maybeDecay()
	}
	return hot
}

// Estimate returns the sketch's current per-window count estimate for the
// key hashed to h, without recording an access.
func (d *Detector) Estimate(h uint64) uint32 {
	h2 := h>>32 | h<<32
	est := uint32(cellCap)
	for r := 0; r < rows; r++ {
		if v := d.cells[r*cols+int((h+uint64(r)*h2)&colMask)].Load(); v < est {
			est = v
		}
	}
	return est
}

// Hot reports whether the key hashed to h is currently flagged, without
// recording an access.
func (d *Detector) Hot(h uint64) bool { return d.Estimate(h) >= d.cfg.Threshold }

// Threshold reports the effective hot threshold.
func (d *Detector) Threshold() uint32 { return d.cfg.Threshold }

// Stats returns cumulative detector counters.
func (d *Detector) Stats() Stats {
	return Stats{
		Observed: d.observed.Load(),
		Flagged:  d.flagged.Load(),
		Decays:   d.decays.Load(),
	}
}

// Decay forces a decay sweep regardless of window position (tests; the
// normal sweep rides the observation that crosses the window boundary).
func (d *Detector) Decay() {
	d.window.Store(0)
	d.sweep()
}

// maybeDecay runs the sweep if this caller wins the window reset; the
// losers' observations simply land in the fresh window.
func (d *Detector) maybeDecay() {
	w := d.window.Load()
	if w < d.cfg.Window {
		return
	}
	if !d.window.CompareAndSwap(w, 0) {
		return
	}
	d.sweep()
}

// sweep halves every cell in place. An increment racing the sweep can be
// lost (Load/Store, not a CAS loop) — benign, the sketch overestimates by
// design and the next window absorbs the noise.
func (d *Detector) sweep() {
	d.decays.Add(1)
	for i := range d.cells {
		if v := d.cells[i].Load(); v != 0 {
			d.cells[i].Store(v / 2)
		}
	}
}
