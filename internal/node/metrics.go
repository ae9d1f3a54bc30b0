package node

import (
	"fmt"
	"sort"

	"pgrid/internal/addr"
	"pgrid/internal/health"
	"pgrid/internal/resilience"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// handleMetrics answers KindMetrics with the node's full metrics snapshot:
// every counter and gauge plus every quantile histogram in sparse mergeable
// form. With telemetry disabled the response still carries the schema
// version and empty tables, so collectors can distinguish "no telemetry"
// from "no answer".
func (n *Node) handleMetrics() *wire.MetricsResp {
	return &wire.MetricsResp{Snap: n.tel.MetricsSnapshot()}
}

// FetchMetrics fetches a peer's full metrics snapshot. Pre-metrics peers
// answer with KindError, surfaced here as an error by the transport layer;
// a reachable peer that answers the wrong kind is ErrMalformed.
func (c *Client) FetchMetrics(a addr.Addr) (telemetry.MetricsSnapshot, error) {
	resp, err := c.tr.Call(a, &wire.Message{Kind: wire.KindMetrics, From: addr.Nil})
	if err != nil {
		return telemetry.MetricsSnapshot{}, err
	}
	if resp.MetricsResp == nil {
		rpcKind(c.tel, wire.KindMetrics).Malformed()
		return telemetry.MetricsSnapshot{}, fmt.Errorf("%w: node %v answered metrics request with kind %v", ErrMalformed, a, resp.Kind)
	}
	return resp.MetricsResp.Snap, nil
}

// collectPeer fetches one peer's routing state, metrics snapshot, and
// health digest — as a single batched frame when the peer serves batches,
// the sequential triple otherwise. Returns nil info when the peer is
// unreachable. haveSnap=false means the peer predates the metrics frame
// (it still contributes to the census, just not to the merged histograms);
// haveDigest=false means the caller synthesizes the structural fallback.
// messages counts logical requests (the batch bills three), matching the
// crawl's accounting.
func (c *Client) collectPeer(a addr.Addr, messages *int) (info *wire.InfoResp, snap telemetry.MetricsSnapshot, haveSnap bool, d health.Digest, haveDigest bool) {
	batch := []wire.Message{
		{Kind: wire.KindInfo, From: addr.Nil},
		{Kind: wire.KindMetrics, From: addr.Nil},
		{Kind: wire.KindHealth, From: addr.Nil, Health: &wire.HealthReq{WantLiveness: true}},
	}
	resps, err := callBatch(c.tr, a, addr.Nil, batch)
	if err == nil {
		*messages += len(batch)
		if resps[0].InfoResp == nil {
			rpcKind(c.tel, wire.KindInfo).Malformed()
			return nil, telemetry.MetricsSnapshot{}, false, health.Digest{}, false
		}
		info = resps[0].InfoResp
		if resps[1].MetricsResp != nil {
			snap, haveSnap = resps[1].MetricsResp.Snap, true
		}
		if resps[2].HealthResp != nil {
			d, haveDigest = resps[2].HealthResp.Digest, true
		}
		return info, snap, haveSnap, d, haveDigest
	}
	if Classify(err) == resilience.Transient {
		// Unreachable: bill the one contact attempt, like a failed
		// sequential info fetch.
		*messages++
		return nil, telemetry.MetricsSnapshot{}, false, health.Digest{}, false
	}
	// The peer answered but refused the batch envelope (pre-batch peer):
	// fall back to the sequential calls it does understand.
	i, err := c.nodeInfo(a)
	*messages++
	if err != nil {
		return nil, telemetry.MetricsSnapshot{}, false, health.Digest{}, false
	}
	snap, err = c.FetchMetrics(a)
	*messages++
	haveSnap = err == nil
	d, _, err = c.FetchHealth(a, true)
	*messages++
	haveDigest = err == nil
	if !haveDigest {
		d = health.Digest{}
	}
	return i, snap, haveSnap, d, haveDigest
}

// ClusterResult is one cluster-wide metrics collection: per-peer
// snapshots keyed by address, the health digests gathered along the way
// (feeding availability objectives), the peers that were referenced but
// never answered, and the message cost.
type ClusterResult struct {
	// Snapshots holds one metrics snapshot per reachable peer that speaks
	// the metrics frame. Peers too old for KindMetrics appear in Digests
	// (or Unreachable) but not here.
	Snapshots map[addr.Addr]telemetry.MetricsSnapshot
	Digests   []health.Digest
	// Unreachable lists peers some reachable peer referenced that did not
	// answer the collection (offline, crashed, or unknown to the
	// transport). Their absence is reported, never fatal.
	Unreachable []addr.Addr
	Messages    int
}

// CollectCluster walks the whole community from one entry peer — the same
// breadth-first crawl as Crawl, following every reference and buddy link —
// and gathers a full metrics snapshot plus health digest per reachable
// peer. This is the federation half of the cluster observability plane:
// the merge half lives in analysis.AnalyzeCluster, which folds the
// returned snapshots into cluster-wide quantiles. Per-peer failures are
// recorded in Unreachable, not returned as errors, so one dead peer never
// hides the rest of the cluster. Digests and Unreachable come back sorted
// by address.
func (c *Client) CollectCluster(start addr.Addr) ClusterResult {
	res := ClusterResult{Snapshots: make(map[addr.Addr]telemetry.MetricsSnapshot)}
	visited := map[addr.Addr]bool{start: true}
	queue := []addr.Addr{start}

	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		info, snap, haveSnap, d, haveDigest := c.collectPeer(a, &res.Messages)
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

		if haveSnap {
			res.Snapshots[info.Addr] = snap
		}
		if !haveDigest {
			// Pre-health peer: fall back to what Info already told us.
			d = health.Digest{Addr: info.Addr, Path: info.Path, Entries: info.Entries,
				Buddies: info.Buddies.ToSet().Len()}
			for _, rs := range info.Refs {
				d.RefCounts = append(d.RefCounts, rs.ToSet().Len())
			}
		}
		res.Digests = append(res.Digests, d)
	}
	sort.Slice(res.Digests, func(i, j int) bool { return res.Digests[i].Addr < res.Digests[j].Addr })
	sort.Slice(res.Unreachable, func(i, j int) bool { return res.Unreachable[i] < res.Unreachable[j] })
	return res
}
