package main

import (
	"strings"
	"testing"
	"time"

	"pgrid/internal/telemetry"
)

func TestRenderTop(t *testing.T) {
	// Two synthetic snapshots 2s apart: 100 queries in the window.
	prev := statMap{
		"pgrid_rpc_served_total":                    1000,
		`pgrid_rpc_client_kind_total{kind="query"}`: 400,
	}
	cur := statMap{
		"pgrid_rpc_served_total":                                   1200,
		"pgrid_rpc_client_total":                                   520,
		"pgrid_rpc_slow_total":                                     3,
		"pgrid_pool_conns_open":                                    4,
		`pgrid_rpc_client_kind_total{kind="query"}`:                500,
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.5"}`:   1_500_000,
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.95"}`:  4_000_000,
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.99"}`:  9_000_000,
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.999"}`: 20_000_000,
	}
	var b strings.Builder
	renderTop(&b, "node 0", time.Unix(0, 0), cur, prev, 2*time.Second)
	out := b.String()
	for _, want := range []string{
		"served 1200 (100.0/s)",
		"slow 3",
		"client rpc latency",
		"query",
		"50.0", // query rate: (500-400)/2s
		"1.500ms",
		"20.000ms",
		"open 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top frame missing %q:\n%s", want, out)
		}
	}

	// First frame (no previous snapshot): rates render as "-", not zero.
	b.Reset()
	renderTop(&b, "node 0", time.Unix(0, 0), cur, nil, 0)
	if !strings.Contains(b.String(), "served 1200 (-)") {
		t.Errorf("first frame should show - rates:\n%s", b.String())
	}
}

// TestRenderTopCounterReset pins the restart behavior: a counter going
// backward between frames marks the rate as "reset" instead of computing
// a giant negative rate from the stale baseline.
func TestRenderTopCounterReset(t *testing.T) {
	cases := []struct {
		name       string
		prev, cur  int64
		wantServed string
	}{
		{"steady", 1000, 1200, "served 1200 (100.0/s)"},
		{"restart", 1000, 50, "served 50 (reset)"},
		{"restart to zero", 1000, 0, "served 0 (reset)"},
		{"flat", 1000, 1000, "served 1000 (0.0/s)"},
	}
	for _, c := range cases {
		prev := statMap{
			"pgrid_rpc_served_total":                    c.prev,
			`pgrid_rpc_client_kind_total{kind="query"}`: c.prev,
		}
		cur := statMap{
			"pgrid_rpc_served_total":                    c.cur,
			`pgrid_rpc_client_kind_total{kind="query"}`: c.cur,
		}
		var b strings.Builder
		renderTop(&b, "node 0", time.Unix(0, 0), cur, prev, 2*time.Second)
		if !strings.Contains(b.String(), c.wantServed) {
			t.Errorf("%s: frame missing %q:\n%s", c.name, c.wantServed, b.String())
		}
	}

	// The per-kind table resets independently too.
	prev := statMap{`pgrid_rpc_client_kind_total{kind="query"}`: 500}
	cur := statMap{`pgrid_rpc_client_kind_total{kind="query"}`: 20}
	var b strings.Builder
	renderKindTable(&b, "client rpc latency", cur, prev, 2*time.Second, false,
		"pgrid_rpc_client_kind_total", "pgrid_rpc_kind_latency_ns")
	if !strings.Contains(b.String(), "reset") {
		t.Errorf("kind table missing reset marker:\n%s", b.String())
	}
}

// TestRenderTopEpochReset pins the v2 restart signal: a changed start
// epoch marks every rate as reset even when the post-restart counters
// overshoot the old values (the case the cur < prev heuristic misses).
func TestRenderTopEpochReset(t *testing.T) {
	prev := statMap{
		telemetry.StatStartEpoch:                    1_000,
		"pgrid_rpc_served_total":                    100,
		`pgrid_rpc_client_kind_total{kind="query"}`: 50,
	}
	cur := statMap{
		telemetry.StatStartEpoch:                    2_000, // new incarnation
		"pgrid_rpc_served_total":                    900,   // overshoots the old value
		`pgrid_rpc_client_kind_total{kind="query"}`: 700,
	}
	var b strings.Builder
	renderTop(&b, "node 0", time.Unix(0, 0), cur, prev, 2*time.Second)
	out := b.String()
	if !strings.Contains(out, "served 900 (reset)") {
		t.Errorf("overshooting restart not flagged:\n%s", out)
	}
	if strings.Contains(out, "/s)") && !strings.Contains(out, "(reset)") {
		t.Errorf("epoch reset should suppress every headline rate:\n%s", out)
	}

	// Same epoch on both sides: rates compute normally.
	cur[telemetry.StatStartEpoch] = 1_000
	b.Reset()
	renderTop(&b, "node 0", time.Unix(0, 0), cur, prev, 2*time.Second)
	if !strings.Contains(b.String(), "served 900 (400.0/s)") {
		t.Errorf("same-epoch frame should rate normally:\n%s", b.String())
	}
}

func TestStatsReset(t *testing.T) {
	cases := []struct {
		name      string
		cur, prev statMap
		want      bool
	}{
		{"nil prev", statMap{telemetry.StatStartEpoch: 5}, nil, false},
		{"same epoch", statMap{telemetry.StatStartEpoch: 5}, statMap{telemetry.StatStartEpoch: 5}, false},
		{"changed epoch", statMap{telemetry.StatStartEpoch: 6}, statMap{telemetry.StatStartEpoch: 5}, true},
		{"pre-epoch peers", statMap{"x": 1}, statMap{"x": 2}, false},
		{"peer gained epoch", statMap{telemetry.StatStartEpoch: 5}, statMap{}, true},
	}
	for _, c := range cases {
		if got := statsReset(c.cur, c.prev); got != c.want {
			t.Errorf("%s: statsReset = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTopFrame pins the -json frame shape: raw stats always, derived
// rates only when a same-epoch baseline exists, and a reset flag that
// both replaces the rates and explains their absence.
func TestTopFrame(t *testing.T) {
	prev := statMap{telemetry.StatStartEpoch: 1, "pgrid_query_total": 10, "pgrid_pool_conns_open": 2}
	cur := statMap{telemetry.StatStartEpoch: 1, "pgrid_query_total": 30, "pgrid_pool_conns_open": 4}
	f := topFrame("node 0", time.Unix(0, 0), cur, prev, 2*time.Second)
	if f["reset"] != false {
		t.Fatalf("steady frame marked reset: %v", f)
	}
	rates, ok := f["rates"].(map[string]float64)
	if !ok || rates["pgrid_query_total"] != 10 {
		t.Fatalf("rates = %v, want query 10/s", f["rates"])
	}
	if _, gauge := rates["pgrid_pool_conns_open"]; gauge {
		t.Fatalf("gauges must not be rated: %v", rates)
	}

	cur[telemetry.StatStartEpoch] = 2
	f = topFrame("node 0", time.Unix(0, 0), cur, prev, 2*time.Second)
	if f["reset"] != true {
		t.Fatalf("epoch change not flagged: %v", f)
	}
	if _, has := f["rates"]; has {
		t.Fatalf("reset frame must omit rates: %v", f)
	}
}

func TestWithQuantile(t *testing.T) {
	cases := [][2]string{
		{`pgrid_rpc_kind_latency_ns{kind="query"}`, `pgrid_rpc_kind_latency_ns{kind="query",quantile="0.5"}`},
		{"pgrid_pool_acquire_wait_ns", `pgrid_pool_acquire_wait_ns{quantile="0.5"}`},
	}
	for _, c := range cases {
		if got := withQuantile(c[0], "0.5"); got != c[1] {
			t.Errorf("withQuantile(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestRenderKindTableOmitsIdleKinds(t *testing.T) {
	cur := statMap{
		`pgrid_rpc_client_kind_total{kind="exchange"}`: 7,
	}
	var b strings.Builder
	renderKindTable(&b, "client rpc latency", cur, nil, 0, false,
		"pgrid_rpc_client_kind_total", "pgrid_rpc_kind_latency_ns")
	out := b.String()
	if !strings.Contains(out, "exchange") {
		t.Errorf("active kind missing:\n%s", out)
	}
	if strings.Contains(out, "query") || strings.Contains(out, "kind(22)") {
		t.Errorf("idle kinds rendered:\n%s", out)
	}
}
