package node

import (
	"context"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// handleHistory answers KindHistory with a windowed dump of the node's
// telemetry history ring. With history disabled the response is an
// empty, schema-stamped dump.
func (n *Node) handleHistory(req *wire.HistoryReq) *wire.HistoryResp {
	var window time.Duration
	maxPoints := 0
	if req != nil {
		if req.WindowNS > 0 {
			window = time.Duration(req.WindowNS)
		}
		if req.MaxPoints > 0 {
			maxPoints = int(req.MaxPoints)
		}
	}
	return &wire.HistoryResp{Dump: n.history.Dump(window, maxPoints)}
}

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

// FetchHistory fetches a peer's telemetry history dump for the trailing
// window (0 = everything retained), capped at maxPoints points (0 = no
// cap). A peer with history off answers an empty, schema-stamped dump.
func (c *Client) FetchHistory(a addr.Addr, window time.Duration, maxPoints int) (telemetry.HistoryDump, error) {
	resp, err := c.ask(a, HistoryReq(window, maxPoints), func(m *wire.Message) bool { return m.HistoryResp != nil })
	if err != nil {
		return telemetry.HistoryDump{}, err
	}
	return resp.HistoryResp.Dump, nil
}
