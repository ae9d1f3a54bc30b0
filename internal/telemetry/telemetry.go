// Package telemetry is pgrid's zero-dependency observability layer: typed
// atomic counters, gauges and quantile histograms collected in a Registry
// that renders the Prometheus text exposition format, plus a versioned
// structured event stream (JSONL) shared by the simulator and the
// networked node, so both are analyzed with one toolchain.
//
// Every instrument is nil-safe: calling any method on a nil *Counter,
// *QHist, or *Instruments is a no-op. Disabled telemetry therefore
// costs one predictable branch per observation — the construction hot path
// (millions of exchanges per second) runs with a nil *Instruments and pays
// nothing else. Enabled instruments are lock-free (sync/atomic) and safe
// for concurrent use.
package telemetry

import (
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a settable atomic level (a current value, not a count): path
// length, store size, a liveness ratio in permille. Like every instrument
// it is nil-safe and lock-free.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores the gauge's current value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}
