package node

import (
	"context"
	"time"
)

// RunSampler is the node's one metrics sampler: it records one snapshot
// into the history ring per history interval until ctx is cancelled. The
// first snapshot is taken immediately, so the ring is never empty while the
// node serves. The work per tick is a single registry walk (microseconds),
// fixed and independent of traffic. No-op when the node has no history ring
// or no telemetry.
func (n *Node) RunSampler(ctx context.Context) {
	if n.history == nil || n.tel == nil {
		return
	}
	n.history.Record(n.tel.MetricsSnapshot())
	t := time.NewTicker(n.history.Interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.history.Record(n.tel.MetricsSnapshot())
		}
	}
}
