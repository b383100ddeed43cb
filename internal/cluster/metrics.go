package cluster

import "cachegenie/internal/obs"

// RegisterMetrics attaches the ring's replica-routing counters to reg. The
// labels string is raw Prometheus label syntax ("" for none). The counters
// are shared across Manager ring rebuilds, so registering once covers the
// topology's whole lifetime.
func (r *Ring) RegisterMetrics(reg *obs.Registry, labels string) {
	if r == nil || reg == nil {
		return
	}
	reg.CounterFunc("cachegenie_cluster_failover_reads_total", labels,
		"reads served by a non-preferred replica", r.counters.failover.Load)
	reg.CounterFunc("cachegenie_cluster_read_repairs_total", labels,
		"failover hits copied back onto the preferred replica", r.counters.repairs.Load)
	reg.CounterFunc("cachegenie_cluster_skipped_unhealthy_total", labels,
		"replicas skipped because their breaker was open", r.counters.skipped.Load)
}

// RegisterMetrics attaches the manager's replica-routing and membership-
// change handoff counters to reg.
func (m *Manager) RegisterMetrics(reg *obs.Registry, labels string) {
	if m == nil || reg == nil {
		return
	}
	m.Ring().RegisterMetrics(reg, labels)
	reg.CounterFunc("cachegenie_cluster_handoff_drained_total", labels,
		"keys deleted from nodes that no longer replicate them", m.handoffDrained.Load)
	reg.CounterFunc("cachegenie_cluster_handoff_copied_total", labels,
		"keys copied to newly responsible nodes before the drain", m.handoffCopied.Load)
	reg.CounterFunc("cachegenie_cluster_handoff_skipped_nodes_total", labels,
		"nodes a handoff pass could not enumerate", m.handoffSkipped.Load)
}
