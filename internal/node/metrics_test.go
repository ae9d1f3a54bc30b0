package node

import (
	"errors"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

const servedQueryHist = `pgrid_rpc_served_latency_ns{kind="query"}`

func TestFetchMetrics(t *testing.T) {
	c := localHealthCluster(t)
	tel := telemetry.New(1)
	c.Nodes[1].SetTelemetry(tel)
	tel.ServedRPCDone("query", 3*time.Millisecond, false)
	tel.ServedRPCDone("query", 40*time.Millisecond, true)

	cl := NewClient(c.Transport, 42)
	snap, err := cl.FetchMetrics(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != telemetry.MetricsSchemaVersion {
		t.Fatalf("schema = %d, want %d", snap.Schema, telemetry.MetricsSchemaVersion)
	}
	h, ok := snap.Hist(servedQueryHist)
	if !ok || h.Count != 2 {
		t.Fatalf("served hist = %+v (present %v), want 2 observations", h, ok)
	}
	if got, _ := snap.Stat(`pgrid_rpc_served_kind_errors_total{kind="query"}`); got != 1 {
		t.Fatalf("served error counter = %d, want 1", got)
	}

	// A telemetry-disabled peer still answers: schema stamped, tables empty.
	snap, err = cl.FetchMetrics(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != telemetry.MetricsSchemaVersion || len(snap.Hists) != 0 || len(snap.Stats) != 0 {
		t.Fatalf("telemetry-disabled snapshot = %+v", snap)
	}

	// An offline peer is a transport error, not a malformed response.
	c.Nodes[2].SetOnline(false)
	if _, err := cl.FetchMetrics(2); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline fetch err = %v, want ErrOffline", err)
	}
}

// TestTCPCollectCluster is the acceptance test for the observability
// plane: three real TCP nodes each observe a distinct latency stream, the
// collector federates their snapshots, and the merged per-kind quantiles
// must exactly match a histogram fed the union of all streams (merging is
// a bucket-wise sum, so no extra error is tolerated on top of the ≤3.2%
// the bucket geometry already bounds).
func TestTCPCollectCluster(t *testing.T) {
	nodes, tr, stop := startPooledCluster(t, 3, PoolConfig{})
	defer stop()
	spec := []struct {
		path string
		refs []addr.Addr
	}{
		{"0", []addr.Addr{1}},
		{"10", []addr.Addr{0, 2}},
		{"11", []addr.Addr{0, 1}},
	}
	union := telemetry.New(99)
	streams := [][]time.Duration{
		{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
		{500 * time.Microsecond, 80 * time.Millisecond, 81 * time.Millisecond, 82 * time.Millisecond},
		{10 * time.Millisecond, 11 * time.Millisecond, 900 * time.Millisecond},
	}
	for i, s := range spec {
		p := nodes[i].Peer()
		path := bitpath.MustParse(s.path)
		for level := 1; level <= path.Len(); level++ {
			if !p.ExtendFrom(path.Prefix(level-1), path.Bit(level), addr.NewSet(s.refs[level-1])) {
				t.Fatalf("fixture build failed at node %d level %d", i, level)
			}
		}
		tel := telemetry.New(i)
		nodes[i].SetTelemetry(tel)
		for _, d := range streams[i] {
			tel.ServedRPCDone("query", d, false)
			union.ServedRPCDone("query", d, false)
		}
	}

	cl := NewClient(tr, 42)
	res := cl.CollectCluster(0)
	if len(res.Snapshots) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("collect = %d snapshots, unreachable %v", len(res.Snapshots), res.Unreachable)
	}
	if len(res.Digests) != 3 {
		t.Fatalf("collect digests = %+v, want 3", res.Digests)
	}
	// Three logical requests per reachable peer (info+metrics+health).
	if res.Messages != 9 {
		t.Errorf("messages = %d, want 9", res.Messages)
	}

	merged := telemetry.QHistSnapshot{}
	var total int64
	for a, snap := range res.Snapshots {
		h, ok := snap.Hist(servedQueryHist)
		if !ok {
			t.Fatalf("peer %v snapshot lacks %s", a, servedQueryHist)
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
	res = cl.CollectCluster(0)
	if len(res.Snapshots) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
		t.Fatalf("collect with 2 offline = %d snapshots, unreachable %v", len(res.Snapshots), res.Unreachable)
	}
}

// TestCollectClusterPreMetricsFallback proves a mixed-version community
// collects cleanly: peers that refuse the batch envelope (and the metrics
// frame) still contribute their census digest, just not a snapshot.
func TestCollectClusterPreMetricsFallback(t *testing.T) {
	c := localHealthCluster(t)
	cl := NewClient(noHealthTransport{c.Transport}, 42)
	res := cl.CollectCluster(0)
	if len(res.Digests) != 3 {
		t.Fatalf("collect = %+v, want all 3 via Info fallback", res)
	}
	if len(res.Unreachable) != 0 {
		t.Fatalf("unreachable = %v, want none", res.Unreachable)
	}
}

// noMetricsTransport simulates a community where peers batch and answer
// health but predate KindMetrics.
type noMetricsTransport struct{ tr Transport }

func (t noMetricsTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	if m.Kind == wire.KindMetrics || m.Kind == wire.KindBatch {
		return nil, errors.New("unexpected message kind")
	}
	return t.tr.Call(to, m)
}

func TestCollectClusterSequentialFallback(t *testing.T) {
	c := localHealthCluster(t)
	tel := telemetry.New(1)
	c.Nodes[1].SetTelemetry(tel)
	cl := NewClient(noMetricsTransport{c.Transport}, 42)
	res := cl.CollectCluster(0)
	if len(res.Digests) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("collect = %+v", res)
	}
	// The metrics frame was refused everywhere: digests survive, no snaps.
	if len(res.Snapshots) != 0 {
		t.Fatalf("snapshots = %v, want none from pre-metrics peers", res.Snapshots)
	}
	for _, d := range res.Digests {
		if len(d.RefCounts) == 0 {
			t.Errorf("digest %v lost structure: %+v", d.Addr, d)
		}
	}
}
