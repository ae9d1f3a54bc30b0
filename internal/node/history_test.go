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
		if _, err := cl.Route(0, bitpath.Random(rng, 3), true); err != nil {
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
		if n := len(dump.Points); n > 0 {
			if h, ok := dump.Points[n-1].Snap.Hist(servedQueryHist); ok && h.Count == queries {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never absorbed the traffic: %d points", len(dump.Points))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dump.IntervalNS != int64(20*time.Millisecond) {
		t.Fatalf("dump interval %d", dump.IntervalNS)
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
	var served float64
	for i, r := range dump.RateSeries(telemetry.StatServedTotal) {
		served += r * float64(dump.Points[i+1].AtNS-dump.Points[i].AtNS) / 1e9
	}
	serverRate := served / dump.Span().Seconds()
	if serverRate <= 0 {
		t.Fatalf("server-side rate = %v", serverRate)
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

	// (b) The highest bucket's exemplar resolves to a retrievable trace.
	if len(wh.ExTrace) == 0 || len(wh.ExIdx) != len(wh.ExTrace) {
		t.Fatalf("windowed hist carries no tail exemplar: %+v", wh)
	}
	traceID := wh.ExTrace[len(wh.ExTrace)-1]
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
		res = collect(cl, 0)
		if len(res.Dumps) != nNodes || len(res.Unreachable) != 0 {
			t.Fatalf("cluster history = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
		}
		if pts := res.Dumps[2].Points; len(pts) > 0 {
			if served, _ := pts[len(pts)-1].Snap.Stat(telemetry.StatServedTotal); served > 0 {
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
	pre := res.Dumps[2].Points[len(res.Dumps[2].Points)-1]
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
	watch := telemetry.HistoryDump{
		Points: append(append([]telemetry.HistoryPoint{}, res.Dumps[2].Points...),
			telemetry.HistoryPoint{AtNS: time.Now().UnixNano(), Snap: post})}
	if got := watch.Resets(); got != 1 {
		t.Fatalf("resets across restart = %d, want 1", got)
	}
	rates := watch.RateSeries(telemetry.StatServedTotal)
	if len(rates) != len(watch.Points)-1 {
		t.Fatalf("rate series across restart = %v, want one rate per interval", rates)
	}
	for i, rate := range rates {
		if rate < 0 {
			t.Fatalf("rate over interval %d across restart = %v, must never be negative", i, rate)
		}
	}
}

// History returns the attached history ring (possibly nil).
func (n *Node) History() *telemetry.History { return n.history }
