// Package obs is a minimal stand-in for cachegenie/internal/obs so the
// obsnaming fixtures resolve an obs.Registry receiver; the analyzer matches
// on package name + type name, not import path.
package obs

type Histogram struct{}

type Registry struct{}

func (r *Registry) CounterFunc(name, labels, help string, fn func() int64)    {}
func (r *Registry) GaugeFunc(name, labels, help string, fn func() int64)      {}
func (r *Registry) RegisterHistogram(name, labels, help string, h *Histogram) {}
