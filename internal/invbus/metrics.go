package invbus

import "cachegenie/internal/obs"

// RegisterMetrics attaches the bus's counters, queue depth and histograms to
// reg under labels, raw Prometheus label syntax (e.g. `tier="app"`, "" for
// none); re-registering under the same labels rebinds the series to this bus.
func (b *Bus[T]) RegisterMetrics(reg *obs.Registry, labels string) {
	if b == nil || reg == nil {
		return
	}
	reg.CounterFunc("cachegenie_invbus_enqueued_total", labels,
		"ops published to the bus", b.enqueued.Load)
	reg.CounterFunc("cachegenie_invbus_applied_total", labels,
		"keys the applied windows wrote", b.applied.Load)
	reg.CounterFunc("cachegenie_invbus_coalesced_total", labels,
		"ops applied together with another op of their key in one window", b.coalesced.Load)
	reg.CounterFunc("cachegenie_invbus_flushes_total", labels,
		"windows applied", b.flushes.Load)
	reg.CounterFunc("cachegenie_invbus_queue_full_stalls_total", labels,
		"Publish calls that blocked on the full queue", b.queueFullStalls.Load)
	reg.GaugeFunc("cachegenie_invbus_queue_depth", labels,
		"published op lists waiting for the worker", func() int64 { return int64(len(b.ch)) })
	reg.GaugeFunc("cachegenie_invbus_max_lag_seconds", labels,
		"worst delay from publish to the end of its window's apply", b.maxLag.Load)
	reg.RegisterHistogram("cachegenie_invbus_flush_batch_size", labels,
		"ops per applied window", &b.flushSize)
	reg.RegisterHistogram("cachegenie_invbus_publish_stall_seconds", labels,
		"time Publish callers spent blocked on the full queue", &b.stallTime)
}
