// Package obs is the zero-dependency observability layer of the repo: a
// metrics registry (counters, gauges, log-scale histograms) with text and
// JSON exposition, and one trace record (Span) with one sink and one JSONL
// reader for packet lifecycles and causal block traces alike.
//
// The paper reads four metrics off the dependence graph — authentication
// probability, overhead, receiver delay, buffer size — but a simulator
// that only reports end-of-run aggregates cannot say *why* a packet failed
// to authenticate or where verifier time goes. This package is the
// substrate the rest of the stack (netsim, verifier, transport, crypto,
// the CLIs) hangs its instrumentation on, and the baseline every
// performance PR measures itself against.
//
// Everything here is safe for concurrent use, and everything is optional:
// components accept a nil *Registry / nil Tracer and skip all work, so the
// hot path pays nothing when observability is off.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n may be any non-negative delta; negative deltas are the
// caller's bug but are not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable 64-bit metric (buffer depths, active blocks, ...).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to n if n exceeds the current value (high-water
// tracking from concurrent writers).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named instruments. Lookup is mutex-guarded get-or-create;
// hot paths should look instruments up once and cache the pointer. A nil
// *Registry is valid: every lookup returns nil, and nil instruments drop
// all updates.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaugs map[string]*Gauge
	hists map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gaugs: make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gaugs[name]
	if !ok {
		g = &Gauge{}
		r.gaugs[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
