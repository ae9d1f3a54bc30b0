package node

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// statValue finds a series among flattened stats; -1 if absent.
func statValue(stats []telemetry.Stat, name string) int64 {
	for _, s := range stats {
		if s.Name == name {
			return s.Value
		}
	}
	return -1
}

func TestStatsRPC(t *testing.T) {
	c := NewCluster(4, smallCfg(), 7)
	tel := telemetry.New(0)
	c.Nodes[0].SetTelemetry(tel)

	// Without telemetry the RPC still answers, with the schema and no data.
	metrics := &wire.Message{Kind: wire.KindObserve, From: addr.Nil, Observe: &wire.ObserveReq{Asks: wire.AskMetrics}}
	resp, err := c.Transport.Call(1, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ObserveResp == nil || resp.ObserveResp.Metrics.Schema != telemetry.MetricsSchemaVersion {
		t.Fatalf("bare node metrics = %+v", resp.ObserveResp)
	}
	if n := len(resp.ObserveResp.Metrics.Stats) + len(resp.ObserveResp.Metrics.Hists); n != 0 {
		t.Errorf("bare node returned %d series", n)
	}

	// Drive some traffic through node 0, then scrape it over the wire.
	rng := rand.New(rand.NewSource(1))
	buildCluster(t, c, 1.5, 4000, rng)
	c.Nodes[0].Query(bitpath.MustParse("101"))

	resp, err = c.Transport.Call(0, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ObserveResp == nil || resp.ObserveResp.Metrics.Schema != telemetry.MetricsSchemaVersion {
		t.Fatalf("metrics = %+v", resp.ObserveResp)
	}
	st := resp.ObserveResp.Metrics.Stats
	if v := statValue(st, "pgrid_rpc_served_total"); v < 1 {
		t.Errorf("pgrid_rpc_served_total = %d", v)
	}
	if v := statValue(st, "pgrid_query_total"); v != 1 {
		t.Errorf("pgrid_query_total = %d, want 1", v)
	}
	if h, _ := resp.ObserveResp.Metrics.Hist("pgrid_query_hops"); h.Count != 1 {
		t.Errorf("pgrid_query_hops count = %d, want 1", h.Count)
	}
}

func TestExchangeCasesCountedOverTransport(t *testing.T) {
	c := NewCluster(2, smallCfg(), 1)
	tel := telemetry.New(1)
	c.Nodes[1].SetTelemetry(tel) // node 1 is the responder
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel.SetSink(sink)

	if err := c.Nodes[0].Exchange(1); err != nil {
		t.Fatal(err)
	}
	st := tel.Registry().Snapshot()
	if v := statValue(st, "pgrid_exchange_total"); v != 1 {
		t.Errorf("pgrid_exchange_total = %d, want 1", v)
	}
	if v := statValue(st, `pgrid_exchange_case_total{case="1"}`); v != 1 {
		t.Errorf("case-1 counter = %d, want 1", v)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var e telemetry.Event
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || bytes.Count(buf.Bytes(), []byte("\n")) != 1 {
		t.Fatalf("events = %q (%v)", buf.Bytes(), err)
	}
	if e.Kind != telemetry.KindExchange || e.Node != 1 || e.Attrs["case"] != "1" {
		t.Errorf("event = %+v", e)
	}
}

func TestInstrumentedTransport(t *testing.T) {
	c := NewCluster(2, smallCfg(), 5)
	tel := telemetry.New(0)
	tr := InstrumentTransport(c.Transport, tel)

	if _, err := tr.Call(1, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].SetOnline(false)
	if _, err := tr.Call(1, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err == nil {
		t.Fatal("call to offline node succeeded")
	}
	st := tel.Registry().Snapshot()
	if v := statValue(st, "pgrid_rpc_client_total"); v != 2 {
		t.Errorf("pgrid_rpc_client_total = %d, want 2", v)
	}
	if v := statValue(st, "pgrid_rpc_client_errors_total"); v != 1 {
		t.Errorf("pgrid_rpc_client_errors_total = %d, want 1", v)
	}
	if v := statValue(st, `pgrid_rpc_client_kind_total{kind="info"}`); v != 2 {
		t.Errorf("per-kind client counter = %d, want 2", v)
	}
	if v := statValue(st, `pgrid_rpc_kind_latency_ns_count{kind="info"}`); v != 2 {
		t.Errorf("latency observations = %d, want 2", v)
	}

	// Nil telemetry must unwrap to the inner transport, not allocate.
	if got := InstrumentTransport(c.Transport, nil); got != Transport(c.Transport) {
		t.Error("InstrumentTransport(nil) did not return the inner transport")
	}
}

func TestFlakyTransportDropCounter(t *testing.T) {
	c := NewCluster(2, smallCfg(), 9)
	tel := telemetry.New(0)
	fl := NewChaosTransport(c.Transport, ChaosConfig{Drop: 0.5, Seed: 42})
	fl.SetTelemetry(tel)

	for i := 0; i < 100; i++ {
		fl.Call(1, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
	}
	cs := fl.Stats()
	dropped, total := cs.Dropped, cs.Total
	if total != 100 || dropped == 0 {
		t.Fatalf("dropped/total = %d/%d", dropped, total)
	}
	st := tel.Registry().Snapshot()
	if v := statValue(st, "pgrid_rpc_dropped_total"); v != dropped {
		t.Errorf("pgrid_rpc_dropped_total = %d, want %d", v, dropped)
	}
	if v := statValue(st, `pgrid_rpc_dropped_kind_total{kind="info"}`); v != dropped {
		t.Errorf("per-kind dropped counter = %d, want %d", v, dropped)
	}
}

func TestQueryBacktracksOverTransport(t *testing.T) {
	c := NewCluster(16, smallCfg(), 11)
	rng := rand.New(rand.NewSource(2))
	buildCluster(t, c, 2.5, 20000, rng)

	tel := telemetry.New(0)
	c.Nodes[0].SetTelemetry(tel)
	// Knock out most of the community so searches are forced to backtrack.
	for _, n := range c.Nodes[1:] {
		if rng.Float64() < 0.6 {
			n.SetOnline(false)
		}
	}
	backtracks := 0
	for i := 0; i < 50; i++ {
		res := c.Nodes[0].Query(bitpath.Random(rng, 4))
		backtracks += res.Backtracks
	}
	st := tel.Registry().Snapshot()
	if v := statValue(st, "pgrid_query_total"); v != 50 {
		t.Errorf("pgrid_query_total = %d, want 50", v)
	}
	if v := statValue(st, "pgrid_query_backtracks_total"); v != int64(backtracks) {
		t.Errorf("pgrid_query_backtracks_total = %d, want %d", v, backtracks)
	}
}
