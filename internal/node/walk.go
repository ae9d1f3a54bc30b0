package node

import (
	"sort"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// The operator reads a peer serves besides Info, as request messages: what
// the Fetch* calls send on their own and what Walk batches behind Info.

// HealthReq asks for the replica digest, with the per-level probe tallies
// when wantLiveness is set.
func HealthReq(wantLiveness bool) wire.Message {
	return wire.Message{Kind: wire.KindHealth, From: addr.Nil, Health: &wire.HealthReq{WantLiveness: wantLiveness}}
}

// RepairReq asks for the repair status; trigger first runs one repair round.
func RepairReq(trigger bool) wire.Message {
	return wire.Message{Kind: wire.KindRepair, From: addr.Nil, Repair: &wire.RepairReq{Trigger: trigger}}
}

// MetricsReq asks for the full metrics snapshot.
func MetricsReq() wire.Message { return wire.Message{Kind: wire.KindMetrics, From: addr.Nil} }

// HistoryReq asks for the history ring over the trailing window (0 =
// everything retained), capped at maxPoints points (0 = no cap).
func HistoryReq(window time.Duration, maxPoints int) wire.Message {
	return wire.Message{Kind: wire.KindHistory, From: addr.Nil,
		History: &wire.HistoryReq{WindowNS: int64(window), MaxPoints: int64(maxPoints)}}
}

// WalkResult is one community walk. Reached lists the peers that answered
// and Unreachable the peers some reached peer referenced that could not be
// asked (offline, crashed, unknown to the transport, or answering without a
// usable Info), both sorted. Each ask fills its column with what the reached
// peers answered: Digests (sorted by address) and Repairs from HealthReq and
// RepairReq, Snapshots and Dumps from MetricsReq and HistoryReq. Messages is
// the cost in logical requests — a reached peer bills Info plus every ask, a
// failed contact bills one (batching removes round trips, not messages).
type WalkResult struct {
	Reached     []addr.Addr
	Unreachable []addr.Addr
	Digests     []health.Digest
	Repairs     []repair.Status
	Snapshots   map[addr.Addr]telemetry.MetricsSnapshot
	Dumps       map[addr.Addr]telemetry.HistoryDump
	Messages    int
}

// file puts one ask slot's answer into its column and reports whether resp
// really is the answer to asked.
func (r *WalkResult) file(from addr.Addr, asked wire.Kind, resp *wire.Message) bool {
	switch {
	case asked == wire.KindHealth && resp.HealthResp != nil:
		r.Digests = append(r.Digests, resp.HealthResp.Digest)
	case asked == wire.KindRepair && resp.RepairResp != nil:
		r.Repairs = append(r.Repairs, resp.RepairResp.Status)
	case asked == wire.KindMetrics && resp.MetricsResp != nil:
		r.Snapshots[from] = resp.MetricsResp.Snap
	case asked == wire.KindHistory && resp.HistoryResp != nil:
		r.Dumps[from] = resp.HistoryResp.Dump
	default:
		return false
	}
	return true
}

// Walk is the one community walk, behind `pgridctl crawl`, `cluster`,
// `top -cluster` and `watch -cluster`: breadth-first from the peer at start
// along every reference and buddy link, one batch frame [Info, asks…] per
// peer. A transport error or a bad Info slot makes the peer Unreachable and
// never aborts the walk; an ask slot answered with anything but its response
// kind is counted malformed and left out of its column, with no second round
// trip. There is no path for a peer that does not know a kind, because the
// one wire cannot produce the KindError such a path would wait for: an
// unknown kind decodes as wire.ErrCorrupt, the server drops the connection,
// and the caller sees a transient loss.
func (c *Client) Walk(start addr.Addr, asks ...wire.Message) WalkResult {
	res := WalkResult{Snapshots: make(map[addr.Addr]telemetry.MetricsSnapshot),
		Dumps: make(map[addr.Addr]telemetry.HistoryDump)}
	batch := append([]wire.Message{{Kind: wire.KindInfo, From: addr.Nil}}, asks...)
	visited := map[addr.Addr]bool{start: true}
	queue := []addr.Addr{start}
	enqueue := func(rs wire.RefSet) {
		for _, r := range rs.Addrs {
			if !visited[r] {
				visited[r] = true
				queue = append(queue, r)
			}
		}
	}

	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		resps, err := callBatch(c.tr, a, addr.Nil, batch)
		if err != nil {
			res.Messages++
			res.Unreachable = append(res.Unreachable, a)
			continue
		}
		res.Messages += len(batch)
		info := resps[0].InfoResp
		if info == nil {
			rpcKind(c.tel, wire.KindInfo).Malformed()
			res.Unreachable = append(res.Unreachable, a)
			continue
		}
		res.Reached = append(res.Reached, info.Addr)
		for i := range asks {
			if !res.file(info.Addr, asks[i].Kind, &resps[i+1]) {
				rpcKind(c.tel, asks[i].Kind).Malformed()
			}
		}
		for _, rs := range info.Refs {
			enqueue(rs)
		}
		enqueue(info.Buddies)
	}
	sort.Slice(res.Reached, func(i, j int) bool { return res.Reached[i] < res.Reached[j] })
	sort.Slice(res.Unreachable, func(i, j int) bool { return res.Unreachable[i] < res.Unreachable[j] })
	sort.Slice(res.Digests, func(i, j int) bool { return res.Digests[i].Addr < res.Digests[j].Addr })
	return res
}
