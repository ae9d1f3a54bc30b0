package node

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/resilience"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// handleHistory answers KindHistory with a windowed dump of the node's
// telemetry history ring. With history disabled the response is an
// empty, schema-stamped dump — distinguishable from a pre-history peer,
// which answers the unknown kind with KindError.
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

// RunHistorySampler records one metrics snapshot into the ring per
// interval until ctx is cancelled — the budget-bounded companion of the
// status and SLO loops in pgridnode. One snapshot is taken immediately
// so the ring is never empty while the node serves, then one per tick;
// the work per tick is a single registry walk (microseconds), so the
// sampler's cost is fixed and independent of traffic. No-op when the
// node has no history ring or no telemetry.
func (n *Node) RunHistorySampler(ctx context.Context) {
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

// FetchHistory fetches a peer's telemetry history dump for the trailing
// window (0 = everything retained), capped at maxPoints points (0 = no
// cap). Peers that predate the history frame answer KindError; those
// degrade to the metrics snapshot path — a single-point dump carrying
// the peer's current cumulative state, which every HistoryDump consumer
// already handles (instantaneous quantiles, no rates). A reachable peer
// answering the wrong kind is ErrMalformed.
func (c *Client) FetchHistory(a addr.Addr, window time.Duration, maxPoints int) (telemetry.HistoryDump, error) {
	resp, err := c.tr.Call(a, &wire.Message{Kind: wire.KindHistory, From: addr.Nil,
		History: &wire.HistoryReq{WindowNS: int64(window), MaxPoints: int64(maxPoints)}})
	if err != nil {
		if Classify(err) == resilience.Terminal {
			// Pre-history peer: it answered, just not this kind. Its
			// snapshot still yields a one-point dump.
			return c.snapshotDump(a)
		}
		return telemetry.HistoryDump{}, err
	}
	if resp.HistoryResp == nil {
		rpcKind(c.tel, wire.KindHistory).Malformed()
		return telemetry.HistoryDump{}, fmt.Errorf("%w: node %v answered history request with kind %v", ErrMalformed, a, resp.Kind)
	}
	return resp.HistoryResp.Dump, nil
}

// snapshotDump degrades a history fetch to the metrics snapshot path:
// one point, stamped now, carrying the peer's cumulative state.
func (c *Client) snapshotDump(a addr.Addr) (telemetry.HistoryDump, error) {
	snap, err := c.FetchMetrics(a)
	if err != nil {
		return telemetry.HistoryDump{}, err
	}
	return telemetry.HistoryDump{
		Schema: telemetry.MetricsSchemaVersion,
		Points: []telemetry.HistoryPoint{{AtNS: time.Now().UnixNano(), Snap: snap}},
	}, nil
}

// HistoryResult is one cluster-wide history collection: per-peer dumps
// keyed by address, the peers that never answered, and the message cost.
type HistoryResult struct {
	// Dumps holds one history dump per reachable peer. Peers with history
	// disabled contribute an empty dump; pre-history peers contribute the
	// single-point snapshot fallback.
	Dumps       map[addr.Addr]telemetry.HistoryDump
	Unreachable []addr.Addr
	Messages    int
}

// CollectClusterHistory walks the community from one entry peer — the
// same breadth-first crawl as CollectCluster — and gathers a windowed
// history dump per reachable peer. Each peer is visited with one batched
// Info+History frame (two logical messages) when it serves batches; a
// pre-batch peer gets the sequential pair. Per-peer failures land in
// Unreachable, never abort the walk.
func (c *Client) CollectClusterHistory(start addr.Addr, window time.Duration, maxPoints int) HistoryResult {
	res := HistoryResult{Dumps: make(map[addr.Addr]telemetry.HistoryDump)}
	visited := map[addr.Addr]bool{start: true}
	queue := []addr.Addr{start}

	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		info, dump, haveDump := c.collectPeerHistory(a, window, maxPoints, &res.Messages)
		if info == nil {
			res.Unreachable = append(res.Unreachable, a)
			continue
		}
		enqueue := func(r addr.Addr) {
			if !visited[r] {
				visited[r] = true
				queue = append(queue, r)
			}
		}
		for _, rs := range info.Refs {
			for _, r := range rs.Addrs {
				enqueue(r)
			}
		}
		for _, b := range info.Buddies.Addrs {
			enqueue(b)
		}
		if haveDump {
			res.Dumps[info.Addr] = dump
		}
	}
	sort.Slice(res.Unreachable, func(i, j int) bool { return res.Unreachable[i] < res.Unreachable[j] })
	return res
}

// collectPeerHistory fetches one peer's routing state and history dump —
// batched when possible, sequential otherwise. Returns nil info when the
// peer is unreachable; haveDump=false means the peer answered Info but
// neither history nor the snapshot fallback.
func (c *Client) collectPeerHistory(a addr.Addr, window time.Duration, maxPoints int, messages *int) (info *wire.InfoResp, dump telemetry.HistoryDump, haveDump bool) {
	batch := []wire.Message{
		{Kind: wire.KindInfo, From: addr.Nil},
		{Kind: wire.KindHistory, From: addr.Nil,
			History: &wire.HistoryReq{WindowNS: int64(window), MaxPoints: int64(maxPoints)}},
	}
	resps, err := callBatch(c.tr, a, addr.Nil, batch)
	if err == nil {
		*messages += len(batch)
		if resps[0].InfoResp == nil {
			rpcKind(c.tel, wire.KindInfo).Malformed()
			return nil, telemetry.HistoryDump{}, false
		}
		info = resps[0].InfoResp
		if resps[1].HistoryResp != nil {
			return info, resps[1].HistoryResp.Dump, true
		}
		// The batch succeeded but the history slot errored: a peer new
		// enough for batches yet older than the history frame. Degrade to
		// its snapshot.
		dump, err := c.snapshotDump(a)
		*messages++
		return info, dump, err == nil
	}
	if Classify(err) == resilience.Transient {
		*messages++ // the one failed contact attempt
		return nil, telemetry.HistoryDump{}, false
	}
	// Pre-batch peer: sequential fallback.
	i, err := c.nodeInfo(a)
	*messages++
	if err != nil {
		return nil, telemetry.HistoryDump{}, false
	}
	dump, err = c.FetchHistory(a, window, maxPoints)
	*messages++
	return i, dump, err == nil
}
