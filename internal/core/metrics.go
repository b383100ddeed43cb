package core

import "cachegenie/internal/obs"

// RegisterMetrics attaches the middleware's counters — and, in async mode,
// the invalidation bus's full instrumentation — to reg. The labels string is
// raw Prometheus label syntax ("" for none).
func (g *Genie) RegisterMetrics(reg *obs.Registry, labels string) {
	if g == nil || reg == nil {
		return
	}
	reg.CounterFunc("cachegenie_genie_hits_total", labels,
		"reads served from cache", g.hits.Load)
	reg.CounterFunc("cachegenie_genie_misses_total", labels,
		"reads that fell through and repopulated", g.misses.Load)
	reg.CounterFunc("cachegenie_genie_trigger_updates_total", labels,
		"in-place cache updates from triggers", g.trigUpdates.Load)
	reg.CounterFunc("cachegenie_genie_trigger_deletes_total", labels,
		"invalidations from triggers", g.trigDeletes.Load)
	reg.CounterFunc("cachegenie_genie_trigger_skips_total", labels,
		"trigger firings that found the key absent and quit", g.trigSkips.Load)
	reg.CounterFunc("cachegenie_genie_recomputes_total", labels,
		"full recomputes after top-K reserve exhaustion", g.recomputes.Load)
	reg.CounterFunc("cachegenie_genie_cas_retries_total", labels,
		"keys deleted after losing a cas between a flush's two batches", g.casRetries.Load)
	reg.CounterFunc("cachegenie_genie_populate_refused_total", labels,
		"populates that lost to a concurrent Add", g.populateRefused.Load)
	// Batching health of the read path: keys per wave falling toward one means
	// pages are back to one exchange per lookup.
	reg.CounterFunc("cachegenie_genie_waves_total", labels,
		"read waves fetched from the cache as one batch", g.waves.Load)
	reg.CounterFunc("cachegenie_genie_wave_keys_total", labels,
		"keys carried by read-wave batches", g.waveKeys.Load)
	// Batching health of the synchronous write path: flushes shrinking toward
	// one op mean statements are back to paying a round trip per cache op.
	reg.RegisterHistogram("cachegenie_genie_writeset_flush_ops", labels,
		"cache ops one statement's write-set flush carried in its (at most two) batches", &g.flushOps)
	g.bus.RegisterMetrics(reg, labels)
}
