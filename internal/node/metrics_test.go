package node

import (
	"errors"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

const servedQueryHist = `pgrid_rpc_served_latency_ns{kind="query"}`

// collect is the walk `pgridctl cluster` makes.
func collect(cl *Client, start addr.Addr) WalkResult {
	return cl.Walk(start, wire.ObserveReq{Asks: wire.AskHistory | wire.AskHealth | wire.AskLiveness | wire.AskRepair})
}

// fetchMetrics observes one peer's metrics column.
func fetchMetrics(cl *Client, a addr.Addr) (telemetry.MetricsSnapshot, error) {
	o, err := cl.Observe(a, wire.ObserveReq{Asks: wire.AskMetrics})
	if err != nil {
		return telemetry.MetricsSnapshot{}, err
	}
	return *o.Metrics, nil
}

func TestFetchMetrics(t *testing.T) {
	c := localHealthCluster(t)
	tel := telemetry.New(1)
	c.Nodes[1].SetTelemetry(tel)
	tel.ServedRPCTraced("query", 3*time.Millisecond, false, 0)
	tel.ServedRPCTraced("query", 40*time.Millisecond, true, 0)

	cl := NewClient(c.Transport, 42)
	snap, err := fetchMetrics(cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StartEpochNS == 0 {
		t.Fatalf("snapshot not stamped with its incarnation: %+v", snap)
	}
	h, ok := snap.Hist(servedQueryHist)
	if !ok || h.Count != 2 {
		t.Fatalf("served hist = %+v (present %v), want 2 observations", h, ok)
	}
	if got, _ := snap.Stat(`pgrid_rpc_served_kind_errors_total{kind="query"}`); got != 1 {
		t.Fatalf("served error counter = %d, want 1", got)
	}

	// A telemetry-disabled peer still answers, its tables empty.
	snap, err = fetchMetrics(cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Hists) != 0 || len(snap.Stats) != 0 {
		t.Fatalf("telemetry-disabled snapshot = %+v", snap)
	}

	// An offline peer is a transport error, not a malformed response.
	c.Nodes[2].SetOnline(false)
	if _, err := fetchMetrics(cl, 2); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline fetch err = %v, want ErrOffline", err)
	}
}

// TestTCPCollectCluster is the acceptance test for the observability
// plane: three real TCP nodes each observe a distinct latency stream inside
// their history window, after one slow call before it, the walk gathers
// their rings, and the window histograms merged across peers must exactly
// match a histogram fed the union of the in-window streams (merging is a
// bucket-wise sum, so no extra error is tolerated on top of the ≤3.2% the
// bucket geometry already bounds).
func TestTCPCollectCluster(t *testing.T) {
	nodes, tr, stop := startPooledCluster(t, 3, PoolConfig{})
	defer stop()
	wireHealthFixture(t, nodes)
	union := telemetry.New(99)
	streams := [][]time.Duration{
		{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
		{500 * time.Microsecond, 80 * time.Millisecond, 81 * time.Millisecond, 82 * time.Millisecond},
		{10 * time.Millisecond, 11 * time.Millisecond, 900 * time.Millisecond},
	}
	for i := range nodes {
		tel := telemetry.New(i)
		nodes[i].SetTelemetry(tel)
		hist := telemetry.NewHistory(time.Second, time.Minute)
		nodes[i].EnableHistory(hist)
		tel.ServedRPCTraced("query", 5*time.Second, false, 0) // before the window
		hist.Record(tel.MetricsSnapshot())
		for _, d := range streams[i] {
			tel.ServedRPCTraced("query", d, false, 0)
			union.ServedRPCTraced("query", d, false, 0)
		}
		hist.Record(tel.MetricsSnapshot())
	}

	cl := NewClient(tr, 42)
	res := collect(cl, 0)
	if len(res.Dumps) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("collect = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
	}
	if len(res.Digests) != 3 {
		t.Fatalf("collect digests = %+v, want 3", res.Digests)
	}
	// One observe per reachable peer carries links, history and health.
	if res.Messages != 3 {
		t.Errorf("messages = %d, want 3", res.Messages)
	}

	merged := telemetry.QHistSnapshot{}
	var total int64
	for a, d := range res.Dumps {
		h, _, ok := d.WindowHist(servedQueryHist, 0)
		if !ok {
			t.Fatalf("peer %v dump lacks %s", a, servedQueryHist)
		}
		var err error
		if merged, err = telemetry.MergeQHist(merged, h); err != nil {
			t.Fatalf("merge: %v", err)
		}
		total += h.Count
	}
	if want := int64(len(streams[0]) + len(streams[1]) + len(streams[2])); total != want {
		t.Fatalf("merged count = %d, want %d", total, want)
	}
	uh, ok := union.MetricsSnapshot().Hist(servedQueryHist)
	if !ok {
		t.Fatal("union snapshot lacks served hist")
	}
	for _, p := range telemetry.QuantilePoints {
		got, want := merged.Quantile(p), uh.Quantile(p)
		if got != want {
			t.Errorf("merged q%g = %d, union-observed = %d", p, got, want)
		}
	}

	// A peer going offline mid-collect is reported unreachable — never an
	// error, and never hiding the rest of the cluster.
	nodes[2].SetOnline(false)
	res = collect(cl, 0)
	if len(res.Dumps) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
		t.Fatalf("collect with 2 offline = %d dumps, unreachable %v", len(res.Dumps), res.Unreachable)
	}
}
