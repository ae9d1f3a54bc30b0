package node

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// observe asks one peer req's columns and fails the test on an error.
func observe(t *testing.T, cl *Client, a addr.Addr, req wire.ObserveReq) *wire.ObserveResp {
	t.Helper()
	o, err := cl.Observe(a, req)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// answers counts the peers whose column the walk filed.
func answers(r WalkResult, column wire.Ask) int {
	switch column {
	case wire.AskHealth:
		return len(r.Digests)
	case wire.AskRepair:
		return len(r.Repairs)
	case wire.AskHistory:
		return len(r.Dumps)
	}
	return 0
}

// columnsOf lists the columns a walk files that asks names, in bit order.
func columnsOf(asks wire.Ask) []wire.Ask {
	var out []wire.Ask
	for _, c := range []wire.Ask{wire.AskHealth, wire.AskHistory, wire.AskRepair} {
		if asks&c != 0 {
			out = append(out, c)
		}
	}
	return out
}

// TestWalk drives the one community walk with the asks of each of its
// callers — the tests' census crawl and pgridctl cluster — and with history
// alone, over the in-process transport and over pooled
// TCP, and pins the contract: one KindObserve per peer whatever is asked,
// one message billed per frame sent, an offline peer unreachable but never
// fatal, and a missing column handled in place — its column empty,
// malformed counted, the others filed, no second call.
func TestWalk(t *testing.T) {
	askSets := []struct {
		name string
		req  wire.ObserveReq
	}{
		{"crawl", wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness | wire.AskRepair}},
		{"cluster", wire.ObserveReq{Asks: wire.AskHistory | wire.AskHealth | wire.AskLiveness | wire.AskRepair}},
		{"history", wire.ObserveReq{Asks: wire.AskHistory}},
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
	servedObserves := func(t *testing.T, n *Node) int64 {
		return counterVal(t, n.Telemetry(), `pgrid_rpc_served_kind_total{kind="observe"}`)
	}

	for _, com := range communities {
		for _, as := range askSets {
			t.Run(com.name+"/"+as.name, func(t *testing.T) {
				nodes, inner := com.start(t)
				for i, n := range nodes {
					n.SetTelemetry(telemetry.New(i))
				}
				columns := columnsOf(as.req.Asks)

				// Healthy: everyone reached, every column answered, one frame each.
				tr := &malformTransport{inner: inner}
				res := NewClient(tr, 42).Walk(0, as.req)
				if !reflect.DeepEqual(res.Reached, []addr.Addr{0, 1, 2}) || len(res.Unreachable) != 0 {
					t.Fatalf("walk reached %v, unreachable %v", res.Reached, res.Unreachable)
				}
				if res.Messages != 3 || tr.calls.Load() != 3 {
					t.Errorf("messages = %d, round trips = %d, want 3 and 3", res.Messages, tr.calls.Load())
				}
				for _, c := range columns {
					if got := answers(res, c); got != 3 {
						t.Errorf("column %#x filed %d times, want 3", c, got)
					}
				}
				for _, n := range nodes {
					if got := servedObserves(t, n); got != 1 {
						t.Errorf("node %v served %d observe frames, want 1", n.Addr(), got)
					}
				}

				// One column missing at every peer: the rest filed.
				bad := columns[0]
				tr = &malformTransport{inner: inner, kind: wire.KindObserve, mode: "nocolumn", column: bad}
				res = NewClient(tr, 42).Walk(0, as.req)
				if len(res.Reached) != 3 || len(res.Unreachable) != 0 || res.Messages != 3 || tr.calls.Load() != 3 {
					t.Fatalf("walk reached %v, unreachable %v, %d messages, %d round trips",
						res.Reached, res.Unreachable, res.Messages, tr.calls.Load())
				}
				for _, c := range columns {
					want := 3
					if c == bad {
						want = 0
					}
					if got := answers(res, c); got != want {
						t.Errorf("column %#x filed %d times, want %d", c, got, want)
					}
				}

				// An answer without links makes the peer unreachable: nothing it
				// says is used.
				tr = &malformTransport{inner: inner, kind: wire.KindObserve, mode: "nocolumn", column: wire.AskLinks}
				res = NewClient(tr, 42).Walk(0, as.req)
				if len(res.Reached) != 0 || len(res.Unreachable) != 1 || res.Messages != 1 || tr.calls.Load() != 1 {
					t.Errorf("no links: reached %v, unreachable %v, %d messages, %d round trips",
						res.Reached, res.Unreachable, res.Messages, tr.calls.Load())
				}

				// Offline peer: reported, billed its one frame, never fatal.
				nodes[2].SetOnline(false)
				tr = &malformTransport{inner: inner}
				res = NewClient(tr, 42).Walk(0, as.req)
				if len(res.Reached) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
					t.Fatalf("walk with 2 offline reached %v, unreachable %v", res.Reached, res.Unreachable)
				}
				if res.Messages != 3 || tr.calls.Load() != 3 {
					t.Errorf("with 2 offline: messages = %d, round trips = %d, want 3 and 3", res.Messages, tr.calls.Load())
				}
			})
		}
	}
}

// failingObserve is the 3-peer health fixture with telemetry on, seen
// through a transport that fails KindObserve answers the way mode says
// (stripping column under "nocolumn"), and a client over it.
func failingObserve(t *testing.T, mode string, column wire.Ask) (*Cluster, *malformTransport, *Client) {
	t.Helper()
	c := localHealthCluster(t)
	for i := range c.Nodes {
		c.Nodes[i].SetTelemetry(telemetry.New(i))
	}
	tr := &malformTransport{inner: c.Transport, kind: wire.KindObserve, mode: mode, column: column}
	return c, tr, NewClient(tr, 42)
}

// observeFails asks peer a req through cl and checks the single-peer read
// fails in one round trip with want — or, for want nil, with an error that
// is neither malformed nor offline (a refusing peer).
func observeFails(t *testing.T, tr *malformTransport, cl *Client, a addr.Addr, req wire.ObserveReq, want error) {
	t.Helper()
	before := tr.calls.Load()
	o, err := cl.Observe(a, req)
	switch {
	case err == nil:
		t.Errorf("Observe of a failing peer = %+v, want an error", o)
	case want != nil && !errors.Is(err, want):
		t.Errorf("Observe err = %v, want %v", err, want)
	case want == nil && (errors.Is(err, ErrMalformed) || errors.Is(err, ErrOffline)):
		t.Errorf("Observe of a refusing peer: err = %v, want neither malformed nor offline", err)
	}
	if got := tr.calls.Load() - before; got != 1 {
		t.Errorf("Observe took %d round trips, want 1 (nothing asked in its place)", got)
	}
}

// TestCrawlPreHealthFallback pins that no digest is made up for a peer
// whose health column is missing: the peer is still walked through (its
// links are good), its repair column is filed, and nobody asks it a second
// time.
func TestCrawlPreHealthFallback(t *testing.T) {
	_, tr, cl := failingObserve(t, "nocolumn", wire.AskHealth)
	res := crawl(cl, 0)
	if len(res.Reached) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("crawl = %+v, want all 3 reached", res)
	}
	if len(res.Digests) != 0 {
		t.Errorf("digests = %+v, want none: the health column is missing everywhere", res.Digests)
	}
	if len(res.Repairs) != 3 {
		t.Errorf("repair statuses = %d, want 3: the health column's gap is its own", len(res.Repairs))
	}
	if res.Messages != 3 || tr.calls.Load() != 3 {
		t.Errorf("messages = %d, round trips = %d, want 3 and 3 (one frame per peer, no second ask)",
			res.Messages, tr.calls.Load())
	}
	observeFails(t, tr, cl, 2, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness}, ErrMalformed)
}

// TestCollectClusterPreMetricsFallback pins that there is no sequential
// fallback: a peer that refuses the observe itself (a KindError answer,
// which every transport surfaces as an error) or answers with another
// kind's response is unreachable — one message billed, and nothing asked
// one by one after it.
func TestCollectClusterPreMetricsFallback(t *testing.T) {
	for _, tc := range []struct {
		mode string
		err  error
	}{
		{"kinderror", nil},
		{"wrongkind", ErrMalformed},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			_, tr, cl := failingObserve(t, tc.mode, 0)
			res := collect(cl, 0)
			if len(res.Reached) != 0 || len(res.Unreachable) != 1 || res.Unreachable[0] != 0 {
				t.Fatalf("collect = %+v, want the entry peer unreachable", res)
			}
			if len(res.Dumps) != 0 || len(res.Digests) != 0 {
				t.Errorf("filed %d dumps and %d digests from a failed answer", len(res.Dumps), len(res.Digests))
			}
			if res.Messages != 1 || tr.calls.Load() != 1 {
				t.Errorf("messages = %d, round trips = %d, want 1 and 1", res.Messages, tr.calls.Load())
			}
			observeFails(t, tr, cl, 2, wire.ObserveReq{Asks: wire.AskHistory}, tc.err)
		})
	}
}

// TestCollectClusterSequentialFallback: an answer missing its history
// column is never trusted and never re-asked one by one — the digests
// survive with their structure and no dump is filed.
func TestCollectClusterSequentialFallback(t *testing.T) {
	_, tr, cl := failingObserve(t, "nocolumn", wire.AskHistory)
	res := collect(cl, 0)
	if len(res.Reached) != 3 || len(res.Digests) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("collect = %+v", res)
	}
	if dumps := res.Dumps; len(dumps) != 0 {
		t.Fatalf("dumps = %v, want none from answers without the column", dumps)
	}
	for _, d := range res.Digests {
		if len(d.RefCounts) == 0 {
			t.Errorf("digest %v lost structure: %+v", d.Addr, d)
		}
	}
	if res.Messages != 3 || tr.calls.Load() != 3 {
		t.Errorf("messages = %d, round trips = %d, want 3 and 3 (one frame per peer)", res.Messages, tr.calls.Load())
	}
	observeFails(t, tr, cl, 2, wire.ObserveReq{Asks: wire.AskHistory}, ErrMalformed)
}

// TestFetchHistoryPreHistoryFallback pins that a history read does not
// degrade: a peer refusing the observe is an error, not a one-point dump
// built from a second (metrics) call — and a history-enabled peer with an
// unsampled ring answers for real, an empty dump with its interval.
func TestFetchHistoryPreHistoryFallback(t *testing.T) {
	c, tr, cl := failingObserve(t, "kinderror", 0)
	req := wire.ObserveReq{Asks: wire.AskHistory, WindowNS: int64(time.Minute), MaxPoints: 8}
	observeFails(t, tr, cl, 1, req, nil)

	c.Nodes[2].EnableHistory(telemetry.NewHistory(time.Second, time.Minute))
	empty := observe(t, NewClient(c.Transport, 43), 2, wire.ObserveReq{Asks: wire.AskHistory}).History
	if len(empty.Points) != 0 || empty.IntervalNS != int64(time.Second) {
		t.Fatalf("unsampled ring dump = %+v", empty)
	}
}

// TestCollectClusterHistoryFallbacks: an answer that comes back without its
// history column leaves that peer's dump out without a second call; real
// rings come back over the same walk; an offline peer lands in Unreachable,
// billed its one frame; and none of it aborts the walk.
func TestCollectClusterHistoryFallbacks(t *testing.T) {
	c, tr, cl := failingObserve(t, "nocolumn", wire.AskHistory)
	res := collect(cl, 0)
	if len(res.Reached) != 3 || len(res.Dumps) != 0 || len(res.Unreachable) != 0 {
		t.Fatalf("collect over answers without history = %d peers, %d dumps, unreachable %v",
			len(res.Reached), len(res.Dumps), res.Unreachable)
	}
	if got := tr.calls.Load(); got != 3 {
		t.Errorf("round trips = %d, want 3 (one frame per peer)", got)
	}

	// History-enabled peers answer with their real rings over the same walk.
	for i := range c.Nodes {
		h := telemetry.NewHistory(time.Second, time.Minute)
		c.Nodes[i].EnableHistory(h)
		h.Record(c.Nodes[i].Telemetry().MetricsSnapshot())
		h.Record(c.Nodes[i].Telemetry().MetricsSnapshot())
	}
	dumps := collect(NewClient(c.Transport, 44), 0).Dumps
	if len(dumps) != 3 {
		t.Fatalf("history collect = %d dumps", len(dumps))
	}
	for a, d := range dumps {
		if len(d.Points) != 2 {
			t.Errorf("peer %v dump = %d points, want 2", a, len(d.Points))
		}
	}

	// An offline peer is reported, never fatal.
	c.Nodes[2].SetOnline(false)
	counted := &malformTransport{inner: c.Transport}
	offline := NewClient(counted, 45)
	res = collect(offline, 0)
	if len(res.Dumps) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
		t.Fatalf("collect with 2 offline = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
	}
	if res.Messages != 3 || counted.calls.Load() != 3 {
		t.Errorf("with 2 offline: messages = %d, round trips = %d, want 3 and 3", res.Messages, counted.calls.Load())
	}
	if _, err := offline.Observe(2, wire.ObserveReq{Asks: wire.AskHistory}); !errors.Is(err, ErrOffline) {
		t.Errorf("Observe of an offline peer: err = %v, want %v", err, ErrOffline)
	}
}

// TestObserveColumns: a peer answers exactly the columns it is asked for,
// each from the feature that owns it, and from a feature it runs without
// too; a triggered repair round runs before the columns are read.
func TestObserveColumns(t *testing.T) {
	c := localHealthCluster(t)
	cl := NewClient(c.Transport, 42)
	for _, asks := range []wire.Ask{0, wire.AskLinks, wire.AskHealth, wire.AskMetrics, wire.AskHistory, wire.AskRepair, wire.AskTraces} {
		o := observe(t, cl, 1, wire.ObserveReq{Asks: asks})
		if !o.Answers(asks) || !reflect.DeepEqual(*o, pick(*o, asks)) {
			t.Errorf("asks %#x answered %+v", asks, o)
		}
	}
	o := observe(t, cl, 1, wire.ObserveReq{Asks: wire.AskLinks | wire.AskRepair | wire.AskMetrics | wire.AskHistory | wire.AskTraces})
	if l := o.Links; l.Addr != 1 || l.Path != "10" || len(l.Refs) != 2 {
		t.Errorf("links = %+v", l)
	}
	if o.Repair.Enabled || o.Metrics == nil || len(o.Metrics.Stats) != 0 ||
		o.History == nil || len(o.History.Points) != 0 || o.Traces.Total != 0 {
		t.Errorf("a peer without repair, telemetry, history or tracing answered %+v %+v %+v %+v", o.Repair, o.Metrics, o.History, o.Traces)
	}

	NewRepairer(c.Nodes[1], time.Second, 1).budget = 16
	o = observe(t, cl, 1, wire.ObserveReq{Asks: wire.AskRepair | wire.AskRepairNow | wire.AskHealth})
	if !o.Repair.Enabled || o.Repair.Rounds != 1 || o.Health.Rounds != 1 {
		t.Errorf("triggered round: repair %+v, health rounds %d; want the round in both", o.Repair, o.Health.Rounds)
	}
}

// pick is o with only the columns asks names.
func pick(o wire.ObserveResp, asks wire.Ask) wire.ObserveResp {
	var p wire.ObserveResp
	if asks&wire.AskLinks != 0 {
		p.Links = o.Links
	}
	if asks&wire.AskHealth != 0 {
		p.Health = o.Health
	}
	if asks&wire.AskMetrics != 0 {
		p.Metrics = o.Metrics
	}
	if asks&wire.AskHistory != 0 {
		p.History = o.History
	}
	if asks&wire.AskRepair != 0 {
		p.Repair = o.Repair
	}
	if asks&wire.AskTraces != 0 {
		p.Traces = o.Traces
	}
	return p
}

// FuzzHandle feeds arbitrary frames through the codec into Node.Handle on a
// live 4-node community: whatever decodes must be served — with a response or
// a KindError — without a panic, observes, apply lists and routed requests
// included.
func FuzzHandle(f *testing.F) {
	entry := store.Entry{Key: bitpath.MustParse("0110"), Name: "f", Holder: 3, Version: 1}
	for _, m := range []wire.Message{
		{Kind: wire.KindQuery, Query: &wire.QueryReq{Key: entry.Key}},
		{Kind: wire.KindExchange, From: 1, Exchange: &wire.ExchangeReq{Path: bitpath.MustParse("1"),
			Refs: []wire.RefSet{{Addrs: []addr.Addr{0}}}}},
		{Kind: wire.KindApply, Apply: &wire.ApplyReq{Entries: []store.Entry{entry}}},
		{Kind: wire.KindGet, Get: &wire.GetReq{Key: entry.Key, Name: entry.Name}},
		{Kind: wire.KindInfo},
		{Kind: wire.KindScan, Scan: &wire.ScanReq{Prefix: bitpath.MustParse("0")}},
		{Kind: wire.KindObserve, Observe: &wire.ObserveReq{Asks: wire.AskTraces, TraceLimit: 4}},
		{Kind: wire.KindObserve, Observe: &wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness}},
		{Kind: wire.KindObserve, Observe: &wire.ObserveReq{Asks: wire.AskMetrics}},
		{Kind: wire.KindObserve, Observe: &wire.ObserveReq{Asks: wire.AskHistory, MaxPoints: 8}},
		{Kind: wire.KindObserve, Observe: &wire.ObserveReq{Asks: wire.AskRepair | wire.AskRepairNow}},
		{Kind: wire.KindObserve, Observe: &wire.ObserveReq{Asks: wire.AskLinks | wire.AskHealth | wire.AskLiveness |
			wire.AskMetrics | wire.AskHistory | wire.AskRepair | wire.AskTraces, WindowNS: int64(time.Minute), MaxPoints: 2, TraceLimit: 1}},
		{Kind: wire.KindObserve},
		// A handover's apply list: one key the receiver (path 00) covers, two it does not.
		{Kind: wire.KindApply, Apply: &wire.ApplyReq{Entries: []store.Entry{entry,
			{Key: "0010", Name: "g", Version: 2}, {Key: "11", Name: "h", Version: 3}}}},
		// A routed read, and one whose read key does not end in the routed key.
		{Kind: wire.KindQuery, Query: &wire.QueryReq{Key: entry.Key, Read: &wire.GetReq{Key: entry.Key, Name: entry.Name}}},
		{Kind: wire.KindQuery, Query: &wire.QueryReq{Key: bitpath.MustParse("10"), Level: 1,
			Read: &wire.GetReq{Key: entry.Key, Name: entry.Name}}},
		// BFS visits with a rider, for a key the receiver (path 00) covers and
		// for one it does not.
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{{Key: "0010", Name: "f", Version: 2}}}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{entry}}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse("0")}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse("11")}}},
		// Scans holding the receiver's digest (its store is empty: 0) and
		// none, and a "same" answer sent as if it were a request.
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse("0"), Held: []uint64{0, 0x5eed}}}},
		{Kind: wire.KindInfo, Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse("00")}}},
		{Kind: wire.KindInfoResp, InfoResp: &wire.InfoResp{Scanned: &wire.ScanResp{Digest: 0x5eed, Same: true}}},
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
	NewRepairer(n, time.Second, 5).budget = 16

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
