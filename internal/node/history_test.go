package node

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// TestTCPHistoryAcceptance is the acceptance test for the time-series
// plane: three real TCP nodes run history samplers while traced queries
// flow, then the federated dumps must (a) reproduce the client's own
// delta computation for windowed quantiles and rates, (b) carry a
// tail-bucket exemplar that resolves to a retrievable trace in the
// flight recorder, and (c) read a restarted peer as a counter reset,
// never a negative rate.
func TestTCPHistoryAcceptance(t *testing.T) {
	tr := NewPoolTransport(PoolConfig{})
	defer tr.Close()
	const nNodes = 3
	nodes := make([]*Node, nNodes)
	servers := make([]*Server, nNodes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = New(addr.Addr(i), smallCfg(), tr, int64(1000+i))
		tel := telemetry.New(i)
		tel.EnableExemplars(0.99)
		nodes[i].SetTelemetry(tel)
		nodes[i].EnableTracing(trace.NewRecorder(256), 0)
		nodes[i].EnableHistory(telemetry.NewHistory(20*time.Millisecond, 10*time.Second))
		servers[i] = NewServer(nodes[i], ln)
		tr.SetEndpoint(addr.Addr(i), ln.Addr().String())
		go servers[i].Serve(ctx)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// The same routable fixture as TestTCPCollectCluster.
	spec := []struct {
		path string
		refs []addr.Addr
	}{
		{"0", []addr.Addr{1}},
		{"10", []addr.Addr{0, 2}},
		{"11", []addr.Addr{0, 1}},
	}
	for i, s := range spec {
		p := nodes[i].Peer()
		path := bitpath.MustParse(s.path)
		for level := 1; level <= path.Len(); level++ {
			if !p.ExtendFrom(path.Prefix(level-1), path.Bit(level), addr.NewSet(s.refs[level-1])) {
				t.Fatalf("fixture build failed at node %d level %d", i, level)
			}
		}
	}

	var samplers sync.WaitGroup
	for _, n := range nodes {
		samplers.Add(1)
		go func(n *Node) {
			defer samplers.Done()
			n.RunHistorySampler(ctx)
		}(n)
	}
	defer samplers.Wait()
	defer cancel() // runs before samplers.Wait: zero leaked goroutines

	// Wait for the immediate pre-traffic sample on every node, so each
	// ring has a clean baseline point.
	for _, n := range nodes {
		for n.History().Len() == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// Drive traffic: fully-sampled traced queries through node 0 over TCP.
	cl := NewClient(tr, 42)
	base := nodes[0].Telemetry().MetricsSnapshot()
	rng := rand.New(rand.NewSource(7))
	const queries = 40
	for i := 0; i < queries; i++ {
		if _, err := cl.TraceQuery(0, bitpath.Random(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	final := nodes[0].Telemetry().MetricsSnapshot()
	clientHist, ok := final.Hist(servedQueryHist)
	if !ok || clientHist.Count != queries {
		t.Fatalf("client-side served hist = %+v (present %v), want %d observations", clientHist, ok, queries)
	}

	// Fetch node 0's history until the ring has absorbed all the traffic.
	var dump telemetry.HistoryDump
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		dump, err = cl.FetchHistory(0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := dump.Newest(); ok {
			if h, ok := p.Snap.Hist(servedQueryHist); ok && h.Count == queries {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never absorbed the traffic: %d points", len(dump.Points))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dump.IntervalNS != int64(20*time.Millisecond) || dump.Schema != telemetry.MetricsSchemaVersion {
		t.Fatalf("dump header = schema %d interval %d", dump.Schema, dump.IntervalNS)
	}

	// (a) Server-side windowed computation == the client's own delta
	// computation. The dump's baseline point predates the traffic and the
	// client's base snapshot likewise, so the delta histograms are
	// identical and every quantile must match exactly — the tolerance the
	// issue allows is for clock skew between the two baselines, and with
	// both pre-traffic there is none to absorb.
	wh, reset, ok := dump.WindowHist(servedQueryHist, 0)
	if !ok || reset {
		t.Fatalf("WindowHist: ok=%v reset=%v", ok, reset)
	}
	if wh.Count != clientHist.Count {
		t.Fatalf("windowed count = %d, client delta count = %d", wh.Count, clientHist.Count)
	}
	for _, p := range telemetry.QuantilePoints {
		if got, want := wh.Quantile(p), clientHist.Quantile(p); got != want {
			t.Errorf("windowed q%g = %d, client-side delta q%g = %d", p, got, p, want)
		}
	}
	serverRate, ok := dump.Rate(telemetry.StatServedTotal, 0)
	if !ok || serverRate <= 0 {
		t.Fatalf("server-side rate = %v, ok=%v", serverRate, ok)
	}
	// The client's rate over the same burst: counter delta over the dump's
	// span. The two denominators differ by at most one sampling interval,
	// so a generous factor bounds the comparison.
	baseServed, _ := base.Stat(telemetry.StatServedTotal)
	finalServed, _ := final.Stat(telemetry.StatServedTotal)
	clientRate := float64(finalServed-baseServed) / dump.Span().Seconds()
	if serverRate < clientRate/3 || serverRate > clientRate*3 {
		t.Errorf("server rate %.1f/s vs client delta rate %.1f/s: disagree beyond tolerance", serverRate, clientRate)
	}

	// (b) A tail-bucket exemplar resolves to a retrievable trace.
	traceID, atOrBelow, ok := wh.TailExemplar()
	if !ok {
		t.Fatalf("windowed hist carries no tail exemplar: %+v", wh)
	}
	if atOrBelow <= 0 {
		t.Fatalf("exemplar bucket bound = %d", atOrBelow)
	}
	_, traces, err := cl.FetchTraces(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, trc := range traces {
		if trc.TraceID == traceID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("exemplar trace %x not retrievable from the flight recorder (%d traces held)", traceID, len(traces))
	}

	// The batched cluster crawl federates every ring. Crawl again until node
	// 2's ring has sampled the requests it served — over warm connections
	// the traffic above can fit inside one sampling interval.
	var res HistoryResult
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		res = cl.CollectClusterHistory(0, 0, 0)
		if len(res.Dumps) != nNodes || len(res.Unreachable) != 0 {
			t.Fatalf("cluster history = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
		}
		if p, ok := res.Dumps[2].Newest(); ok {
			if served, _ := p.Snap.Stat(telemetry.StatServedTotal); served > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("node 2's ring never sampled the requests it served")
		}
	}
	if res.Messages != 2*nNodes {
		t.Errorf("messages = %d, want %d (one info+history batch per peer)", res.Messages, 2*nNodes)
	}
	for a, d := range res.Dumps {
		if len(d.Points) == 0 {
			t.Errorf("peer %v contributed an empty dump", a)
		}
	}

	// (c) Restart node 2: fresh process state, fresh incarnation epoch, on
	// the same address. A watcher's point series spanning the restart must
	// read as one reset and a non-negative rate even though the absolute
	// counters went backwards.
	pre, ok := res.Dumps[2].Newest()
	if !ok {
		t.Fatal("node 2 dump empty before restart")
	}
	if preServed, _ := pre.Snap.Stat(telemetry.StatServedTotal); preServed == 0 {
		t.Fatal("node 2 served nothing before restart; reset assertion would be vacuous")
	}
	servers[2].Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	restarted := New(2, smallCfg(), tr, 2002)
	tel2 := telemetry.New(2)
	tel2.SetStart(time.Now().Add(time.Millisecond)) // a strictly newer incarnation
	restarted.SetTelemetry(tel2)
	restarted.EnableHistory(telemetry.NewHistory(20*time.Millisecond, 10*time.Second))
	srv2 := NewServer(restarted, ln)
	tr.SetEndpoint(2, ln.Addr().String()) // evicts the pooled connection to the old incarnation
	go srv2.Serve(ctx)
	defer srv2.Close()
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		restarted.RunHistorySampler(ctx)
	}()

	post, err := cl.FetchMetrics(2)
	if err != nil {
		t.Fatal(err)
	}
	if post.SameEpoch(pre.Snap) {
		t.Fatalf("restarted node kept its epoch: pre %d post %d", pre.Snap.StartEpochNS, post.StartEpochNS)
	}
	watch := telemetry.HistoryDump{Schema: telemetry.MetricsSchemaVersion,
		Points: append(append([]telemetry.HistoryPoint{}, res.Dumps[2].Points...),
			telemetry.HistoryPoint{AtNS: time.Now().UnixNano(), Snap: post})}
	if got := watch.Resets(); got != 1 {
		t.Fatalf("resets across restart = %d, want 1", got)
	}
	rate, ok := watch.Rate(telemetry.StatServedTotal, 0)
	if !ok || rate < 0 {
		t.Fatalf("rate across restart = %v (ok=%v), must never be negative", rate, ok)
	}
}

// noHistoryTransport simulates a community where peers batch and answer
// metrics but predate KindHistory: the unknown kind comes back as the
// Terminal error a real old node's KindError produces.
type noHistoryTransport struct{ tr Transport }

func (t noHistoryTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	if m.Kind == wire.KindHistory {
		return nil, errors.New("unexpected message kind history")
	}
	if m.Kind == wire.KindBatch {
		for _, sub := range m.Batch.Msgs {
			if sub.Kind == wire.KindHistory {
				return nil, errors.New("unexpected message kind history")
			}
		}
	}
	return t.tr.Call(to, m)
}

// TestFetchHistoryPreHistoryFallback proves the snapshot degradation: a
// peer too old for the history frame still yields a single-point dump
// carrying its current cumulative state.
func TestFetchHistoryPreHistoryFallback(t *testing.T) {
	c := localHealthCluster(t)
	tel := telemetry.New(1)
	c.Nodes[1].SetTelemetry(tel)
	tel.ServedRPCDone("query", 3*time.Millisecond, false)

	cl := NewClient(noHistoryTransport{c.Transport}, 42)
	dump, err := cl.FetchHistory(1, time.Minute, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Points) != 1 {
		t.Fatalf("fallback dump = %d points, want 1", len(dump.Points))
	}
	if h, ok := dump.Points[0].Snap.Hist(servedQueryHist); !ok || h.Count != 1 {
		t.Fatalf("fallback snapshot lost the hist: %+v (present %v)", h, ok)
	}
	// Single-point dumps degrade gracefully: instantaneous quantiles, no rates.
	if _, ok := dump.Rate(telemetry.StatServedTotal, 0); ok {
		t.Fatal("one-point dump reported a rate")
	}
	if wh, _, ok := dump.WindowHist(servedQueryHist, time.Minute); !ok || wh.Count != 1 {
		t.Fatalf("one-point windowed hist = %+v (ok %v)", wh, ok)
	}

	// A history-enabled node answering for real: empty ring, empty dump,
	// distinguishable from the fallback by its zero points.
	c.Nodes[2].EnableHistory(telemetry.NewHistory(time.Second, time.Minute))
	direct := NewClient(c.Transport, 43)
	empty, err := direct.FetchHistory(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Points) != 0 || empty.Schema != telemetry.MetricsSchemaVersion {
		t.Fatalf("unsampled ring dump = %+v", empty)
	}
}

// TestCollectClusterHistoryFallbacks proves a mixed-version community
// federates cleanly: pre-history peers contribute single-point snapshot
// dumps, offline peers land in Unreachable, and neither aborts the walk.
func TestCollectClusterHistoryFallbacks(t *testing.T) {
	c := localHealthCluster(t)
	for i := range c.Nodes {
		tel := telemetry.New(i)
		c.Nodes[i].SetTelemetry(tel)
		tel.ServedRPCDone("query", time.Duration(i+1)*time.Millisecond, false)
	}

	cl := NewClient(noHistoryTransport{c.Transport}, 42)
	res := cl.CollectClusterHistory(0, 0, 0)
	if len(res.Dumps) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("mixed-version collect = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
	}
	for a, d := range res.Dumps {
		if len(d.Points) != 1 {
			t.Errorf("pre-history peer %v contributed %d points, want the 1-point fallback", a, len(d.Points))
		}
	}

	// History-enabled peers answer with their real rings over the same walk.
	for i := range c.Nodes {
		h := telemetry.NewHistory(time.Second, time.Minute)
		c.Nodes[i].EnableHistory(h)
		h.Record(c.Nodes[i].Telemetry().MetricsSnapshot())
		h.Record(c.Nodes[i].Telemetry().MetricsSnapshot())
	}
	res = NewClient(c.Transport, 44).CollectClusterHistory(0, 0, 0)
	if len(res.Dumps) != 3 {
		t.Fatalf("history collect = %d dumps", len(res.Dumps))
	}
	for a, d := range res.Dumps {
		if len(d.Points) != 2 {
			t.Errorf("peer %v dump = %d points, want 2", a, len(d.Points))
		}
	}

	// An offline peer is reported, never fatal.
	c.Nodes[2].SetOnline(false)
	res = NewClient(c.Transport, 45).CollectClusterHistory(0, 0, 0)
	if len(res.Dumps) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
		t.Fatalf("collect with 2 offline = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
	}
}
