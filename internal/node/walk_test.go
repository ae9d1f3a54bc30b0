package node

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// answers counts the peers whose answer to a request kind the walk filed.
func answers(r WalkResult, k wire.Kind) int {
	switch k {
	case wire.KindHealth:
		return len(r.Digests)
	case wire.KindRepair:
		return len(r.Repairs)
	case wire.KindMetrics:
		return len(r.Snapshots)
	case wire.KindHistory:
		return len(r.Dumps)
	}
	return 0
}

// TestWalk drives the one community walk with the ask set of each pgridctl
// command, over the in-process transport and over pooled TCP, and pins the
// contract: one frame per peer whatever is asked, messages billed per
// logical request, an offline peer unreachable but never fatal, and a bad
// slot handled in place — part missing, malformed counted, no second call.
func TestWalk(t *testing.T) {
	askSets := []struct {
		name string
		asks []wire.Message
	}{
		{"crawl", []wire.Message{HealthReq(true), RepairReq(false)}},
		{"cluster", []wire.Message{MetricsReq(), HealthReq(true)}},
		{"top -cluster", []wire.Message{MetricsReq()}},
		{"watch -cluster", []wire.Message{HistoryReq(0, 0)}},
	}
	communities := []struct {
		name  string
		start func(t *testing.T) ([]*Node, Transport)
	}{
		{"local", func(t *testing.T) ([]*Node, Transport) {
			c := localHealthCluster(t)
			return c.Nodes, c.Transport
		}},
		{"tcp", func(t *testing.T) ([]*Node, Transport) {
			nodes, tr, stop := startPooledCluster(t, 3, PoolConfig{})
			t.Cleanup(stop)
			wireHealthFixture(t, nodes)
			return nodes, tr
		}},
	}
	servedBatches := func(t *testing.T, n *Node) int64 {
		return counterVal(t, n.Telemetry(), `pgrid_rpc_served_kind_total{kind="batch"}`)
	}

	for _, com := range communities {
		for _, as := range askSets {
			t.Run(com.name+"/"+as.name, func(t *testing.T) {
				nodes, inner := com.start(t)
				for i, n := range nodes {
					n.SetTelemetry(telemetry.New(i))
				}
				perPeer := 1 + len(as.asks)

				// Healthy: everyone reached, every part answered, one frame each.
				tr := &malformTransport{inner: inner}
				res := NewClient(tr, 42).Walk(0, as.asks...)
				if !reflect.DeepEqual(res.Reached, []addr.Addr{0, 1, 2}) || len(res.Unreachable) != 0 {
					t.Fatalf("walk reached %v, unreachable %v", res.Reached, res.Unreachable)
				}
				if res.Messages != 3*perPeer {
					t.Errorf("messages = %d, want %d", res.Messages, 3*perPeer)
				}
				for _, ask := range as.asks {
					if got := answers(res, ask.Kind); got != 3 {
						t.Errorf("%v answers filed = %d, want 3", ask.Kind, got)
					}
				}
				if got := tr.calls.Load(); got != 3 {
					t.Errorf("round trips = %d, want 3", got)
				}
				for _, n := range nodes {
					if got := servedBatches(t, n); got != 1 {
						t.Errorf("node %v served %d batch frames, want 1", n.Addr(), got)
					}
				}

				// One slot bad at every peer, as a KindError sub-message and as
				// another kind's answer.
				bad := as.asks[0].Kind
				for _, mode := range []string{"kinderror", "wrongkind"} {
					tel := telemetry.New(99)
					tr := &malformTransport{inner: inner, kind: bad, mode: mode}
					cl := NewClient(tr, 42)
					cl.SetTelemetry(tel)
					res := cl.Walk(0, as.asks...)
					if len(res.Reached) != 3 || len(res.Unreachable) != 0 || res.Messages != 3*perPeer {
						t.Fatalf("%s: walk reached %v, unreachable %v, %d messages",
							mode, res.Reached, res.Unreachable, res.Messages)
					}
					for _, ask := range as.asks {
						want := 3
						if ask.Kind == bad {
							want = 0
						}
						if got := answers(res, ask.Kind); got != want {
							t.Errorf("%s: %v answers filed = %d, want %d", mode, ask.Kind, got, want)
						}
					}
					name := fmt.Sprintf("pgrid_rpc_malformed_kind_total{kind=%q}", bad.String())
					if got := counterVal(t, tel, name); got != 3 {
						t.Errorf("%s: %s = %d, want 3", mode, name, got)
					}
					if got := counterVal(t, tel, "pgrid_rpc_malformed_total"); got != 3 {
						t.Errorf("%s: malformed total = %d, want 3", mode, got)
					}
					if got := tr.calls.Load(); got != 3 {
						t.Errorf("%s: round trips = %d, want 3 (no second ask)", mode, got)
					}
				}

				// A bad Info slot makes the peer unreachable: nothing it says is used.
				tr = &malformTransport{inner: inner, kind: wire.KindInfo, mode: "kinderror"}
				res = NewClient(tr, 42).Walk(0, as.asks...)
				if len(res.Reached) != 0 || len(res.Unreachable) != 1 || res.Messages != perPeer || tr.calls.Load() != 1 {
					t.Errorf("bad info slot: reached %v, unreachable %v, %d messages, %d round trips",
						res.Reached, res.Unreachable, res.Messages, tr.calls.Load())
				}

				// Offline peer: reported, billed one message, never fatal.
				nodes[2].SetOnline(false)
				tr = &malformTransport{inner: inner}
				res = NewClient(tr, 42).Walk(0, as.asks...)
				if len(res.Reached) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
					t.Fatalf("walk with 2 offline reached %v, unreachable %v", res.Reached, res.Unreachable)
				}
				if res.Messages != 2*perPeer+1 {
					t.Errorf("messages with 2 offline = %d, want %d", res.Messages, 2*perPeer+1)
				}
				if got := tr.calls.Load(); got != 3 {
					t.Errorf("round trips with 2 offline = %d, want 3", got)
				}
			})
		}
	}
}

// FuzzHandle feeds arbitrary frames through the codec into Node.Handle on a
// live 4-node community: whatever decodes must be served — with a response or
// a KindError — without a panic, batches and routed requests included.
func FuzzHandle(f *testing.F) {
	entry := store.Entry{Key: bitpath.MustParse("0110"), Name: "f", Holder: 3, Version: 1}
	for _, m := range []wire.Message{
		{Kind: wire.KindQuery, Query: &wire.QueryReq{Key: entry.Key}},
		{Kind: wire.KindExchange, From: 1, Exchange: &wire.ExchangeReq{Path: bitpath.MustParse("1"),
			Refs: []wire.RefSet{{Addrs: []addr.Addr{0}}}}},
		{Kind: wire.KindApply, Apply: &wire.ApplyReq{Entry: entry}},
		{Kind: wire.KindGet, Get: &wire.GetReq{Key: entry.Key, Name: entry.Name}},
		{Kind: wire.KindInfo},
		{Kind: wire.KindScan, Scan: &wire.ScanReq{Prefix: bitpath.MustParse("0")}},
		{Kind: wire.KindTraces, Traces: &wire.TracesReq{Limit: 4}},
		HealthReq(true),
		MetricsReq(),
		HistoryReq(0, 8),
		RepairReq(true),
		{Kind: wire.KindBatch, Batch: &wire.BatchReq{Msgs: []wire.Message{
			{Kind: wire.KindInfo}, HealthReq(true), {Kind: wire.KindGet}}}},
		// A routed read, and one whose read key does not end in the routed key.
		{Kind: wire.KindQuery, Query: &wire.QueryReq{Key: entry.Key, Read: &wire.GetReq{Key: entry.Key, Name: entry.Name}}},
		{Kind: wire.KindQuery, Query: &wire.QueryReq{Key: bitpath.MustParse("10"), Level: 1,
			Read: &wire.GetReq{Key: entry.Key, Name: entry.Name}}},
		// BFS visits with a rider, for a key the receiver (path 00) covers and
		// for one it does not.
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Apply: &wire.ApplyReq{Entry: store.Entry{Key: "0010", Name: "f", Version: 2}}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Apply: &wire.ApplyReq{Entry: entry}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse("0")}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse("11")}}},
	} {
		frame, err := wire.AppendFrame(nil, 7, 0, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(hugeLevelFrame(f)) // refused at the gate: seconds under two locks if it were read

	c := NewCluster(4, smallCfg(), 5)
	for i, path := range []string{"00", "01", "10", "11"} {
		p := c.Nodes[i].Peer()
		key := bitpath.MustParse(path)
		other := addr.Addr(i ^ 2) // level 1: a peer across the root split
		buddy := addr.Addr(i ^ 1) // level 2: the sibling leaf
		if !p.ExtendFrom(key.Prefix(0), key.Bit(1), addr.NewSet(other)) ||
			!p.ExtendFrom(key.Prefix(1), key.Bit(2), addr.NewSet(buddy)) {
			f.Fatalf("fixture build failed at node %d", i)
		}
	}
	n := c.Nodes[0]
	n.SetTelemetry(telemetry.New(0))
	n.EnableHistory(telemetry.NewHistory(time.Second, time.Minute))
	NewRepairer(n, time.Second, RepairConfig{Budget: 16}, 5)

	f.Fuzz(func(t *testing.T, frame []byte) {
		_, _, m, err := wire.ReadFrame(bytes.NewReader(frame))
		if err != nil {
			return
		}
		if resp := n.Handle(m); resp == nil {
			t.Fatalf("Handle(%v) = nil", m.Kind)
		}
	})
}
