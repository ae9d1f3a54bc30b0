package node

import (
	"context"
	"time"

	"pgrid/internal/telemetry"
)

// RunSampler is the node's one metrics sampler: it takes one snapshot per
// history interval until ctx is cancelled and hands it to the history ring
// and to each function in also (pgridnode passes its SLO engine's Tick, which
// keeps its own longer windows). The first snapshot is taken immediately, so
// the ring is never empty while the node serves and a burn-rate baseline
// exists before the first interval elapses. The work per tick is a single
// registry walk (microseconds), fixed and independent of traffic. No-op when
// the node has no history ring or no telemetry.
func (n *Node) RunSampler(ctx context.Context, also ...func(telemetry.MetricsSnapshot)) {
	if n.history == nil || n.tel == nil {
		return
	}
	sample := func() {
		snap := n.tel.MetricsSnapshot()
		n.history.Record(snap)
		for _, f := range also {
			f(snap)
		}
	}
	sample()
	t := time.NewTicker(n.history.Interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			sample()
		}
	}
}
