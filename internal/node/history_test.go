package node

import (
	"context"
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

	wireHealthFixture(t, nodes)

	var samplers sync.WaitGroup
	for _, n := range nodes {
		samplers.Add(1)
		go func(n *Node) {
			defer samplers.Done()
			n.RunSampler(ctx)
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
		dump = *observe(t, cl, 0, wire.ObserveReq{Asks: wire.AskHistory}).History
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
	traces := observe(t, cl, 0, wire.ObserveReq{Asks: wire.AskTraces}).Traces.Traces
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

	// The community walk federates every ring. Walk again until node 2's
	// ring has sampled the requests it served — over warm connections the
	// traffic above can fit inside one sampling interval.
	var res WalkResult
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		res = collectHistory(cl, 0)
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
	if res.Messages != nNodes {
		t.Errorf("messages = %d, want %d (one observe per peer)", res.Messages, nNodes)
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
		restarted.RunSampler(ctx)
	}()

	post, err := fetchMetrics(cl, 2)
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

// collectHistory is the walk `pgridctl watch -cluster` makes.
func collectHistory(cl *Client, start addr.Addr) WalkResult {
	return cl.Walk(start, wire.ObserveReq{Asks: wire.AskHistory})
}
