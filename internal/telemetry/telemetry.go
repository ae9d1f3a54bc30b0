// Package telemetry is pgrid's zero-dependency observability layer: typed
// atomic counters and quantile histograms, and reads of the counts other
// components keep (Func), collected in a Registry that renders the Prometheus text exposition format, plus a versioned
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
