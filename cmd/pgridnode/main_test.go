package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/core"
	"pgrid/internal/health"
	"pgrid/internal/node"
	"pgrid/internal/repair"
	"pgrid/internal/resilience"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

func TestParseEndpoints(t *testing.T) {
	cases := []struct {
		name    string
		inline  string
		file    string // written to a temp file when non-empty
		want    map[addr.Addr]string
		wantErr bool
	}{
		{
			name:   "inline with spaces",
			inline: "0=127.0.0.1:7000, 1=127.0.0.1:7001 ,2=host:99",
			want:   map[addr.Addr]string{0: "127.0.0.1:7000", 1: "127.0.0.1:7001", 2: "host:99"},
		},
		{
			name: "file with LF lines",
			file: "0=:7000\n1=:7001\n",
			want: map[addr.Addr]string{0: ":7000", 1: ":7001"},
		},
		{
			name: "file with CRLF lines",
			file: "0=:7000\r\n1=:7001\r\n",
			want: map[addr.Addr]string{0: ":7000", 1: ":7001"},
		},
		{
			name: "trailing blank lines",
			file: "0=:7000\n1=:7001\n\n\n",
			want: map[addr.Addr]string{0: ":7000", 1: ":7001"},
		},
		{
			name: "full-line and trailing comments",
			file: "# community alpha\n0=:7000 # seed node\n\n1=:7001\n",
			want: map[addr.Addr]string{0: ":7000", 1: ":7001"},
		},
		{
			name: "comment-only file",
			file: "# nothing here\n",

			wantErr: true,
		},
		{name: "empty", inline: "", wantErr: true},
		{name: "no equals", inline: "noequals", wantErr: true},
		{name: "non-numeric id", inline: "x=:7000", wantErr: true},
		{name: "negative id", inline: "-1=:7000", wantErr: true},
		{name: "both -peers and -peers-file", inline: "0=:7000", file: "1=:7001\n", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := ""
			if tc.file != "" {
				path = filepath.Join(t.TempDir(), "peers")
				if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := parseEndpoints(tc.inline, path)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseEndpoints(%q) accepted, got %v", tc.inline+tc.file, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for a, ep := range tc.want {
				if got[a] != ep {
					t.Errorf("endpoint[%v] = %q, want %q", a, got[a], ep)
				}
			}
		})
	}
}

func TestParseEndpointsMissingFile(t *testing.T) {
	if _, err := parseEndpoints("", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMixSeed(t *testing.T) {
	// Nodes launched in the same nanosecond must not share seeds, and the
	// mix must spread the id over more than the high bits.
	now := time.Now().UnixNano()
	seen := make(map[int64]bool)
	for id := 0; id < 100; id++ {
		s := mixSeed(now, id)
		if s == 0 || seen[s] {
			t.Fatalf("id %d: seed %d duplicated or zero", id, s)
		}
		seen[s] = true
		if low := uint32(mixSeed(now, id)) == uint32(mixSeed(now, id+1)); low {
			t.Fatalf("id %d: low 32 bits collide with id %d", id, id+1)
		}
	}
	if mixSeed(1, 0) != mixSeed(1, 0) {
		t.Error("mixSeed is not deterministic")
	}
}

// TestOutgoingBreakerEvictsPool drives the stack a node builds for its
// outgoing calls against a peer whose endpoint refuses connections: the
// breakerFails-th failed call opens the peer's breaker, and the pool then
// holds no connection to it.
func TestOutgoingBreakerEvictsPool(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusing := ln.Addr().String()
	ln.Close()

	pool, rt := outgoing(map[addr.Addr]string{1: refusing}, time.Second, 1, 1, nil)
	defer pool.Close()
	for i := 1; i <= breakerFails; i++ {
		if _, err := rt.Call(1, &wire.Message{Kind: wire.KindInfo}); err == nil {
			t.Fatalf("call %d to a refusing endpoint succeeded", i)
		}
		want := resilience.StateClosed.String()
		if i == breakerFails {
			want = resilience.StateOpen.String()
		}
		if b := rt.Breakers(); len(b) != 1 || b[0].Peer != 1 || b[0].State != want {
			t.Fatalf("after %d failed calls: breakers = %+v, want peer 1 %s", i, b, want)
		}
	}
	if open := pool.Stats().Open; open != 0 {
		t.Errorf("pool holds %d connections to a peer whose breaker is open", open)
	}
}

// TestOutgoingTimeout holds the -timeout bound: a call to a listener that
// accepts the connection and never answers fails within the timeout.
func TestOutgoingTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()

	const timeout = 250 * time.Millisecond
	pool, rt := outgoing(map[addr.Addr]string{1: ln.Addr().String()}, timeout, 1, 1, nil)
	defer pool.Close()
	start := time.Now()
	if _, err := rt.Call(1, &wire.Message{Kind: wire.KindInfo}); err == nil {
		t.Fatal("a call to a silent peer succeeded")
	}
	// The dial to a local listener is immediate, so the round trip's bound
	// is what ends the call; allow scheduling slack on a loaded machine.
	if took := time.Since(start); took > timeout+timeout/2 {
		t.Errorf("call to a silent peer took %v, want about %v", took, timeout)
	}
}

// testNode builds a single-node community with telemetry, no network.
func testNode(t *testing.T) (*node.Node, *telemetry.Instruments) {
	t.Helper()
	tr := node.NewLocalTransport()
	tel := telemetry.New(0)
	cfg := core.Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}
	n := node.New(0, cfg, tr, 1)
	n.SetTelemetry(tel)
	tr.Register(n)
	return n, tel
}

func TestAdminMetricsEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	scrape := func() (string, string) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := scrape()
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Errorf("Content-Type = %q, want %q", ctype, want)
	}
	for _, family := range []string{
		"# TYPE pgrid_exchange_total counter",
		"# TYPE pgrid_query_hops summary",
		"pgrid_rpc_served_total 0",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics output missing %q", family)
		}
	}

	// Counters must be monotone across scrapes while traffic flows.
	value := func(body, name string) string {
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				return rest
			}
		}
		t.Fatalf("metric %s not found", name)
		return ""
	}
	if got := value(body, "pgrid_rpc_served_total"); got != "0" {
		t.Errorf("pgrid_rpc_served_total = %s before any traffic", got)
	}
	tel.ServedRPC("query")
	tel.ServedRPC("exchange")
	body2, _ := scrape()
	if got := value(body2, "pgrid_rpc_served_total"); got != "2" {
		t.Errorf("pgrid_rpc_served_total = %s after 2 served RPCs", got)
	}
	tel.ServedRPC("query")
	body3, _ := scrape()
	if got := value(body3, "pgrid_rpc_served_total"); got != "3" {
		t.Errorf("pgrid_rpc_served_total = %s after 3 served RPCs (not monotone?)", got)
	}
}

func TestAdminHealthz(t *testing.T) {
	// probes[level] = (live, dead) observed before the request.
	cases := []struct {
		name        string
		serving     bool
		minLiveness float64
		probes      map[int][2]int
		wantCode    int
		wantBody    string
	}{
		{name: "not yet serving", serving: false, wantCode: http.StatusServiceUnavailable, wantBody: "starting"},
		{name: "serving, no threshold", serving: true, wantCode: http.StatusOK, wantBody: "ok path="},
		{
			name: "threshold set, no probe data yet", serving: true, minLiveness: 0.5,
			wantCode: http.StatusOK,
		},
		{
			name: "all levels above threshold", serving: true, minLiveness: 0.5,
			probes:   map[int][2]int{1: {3, 1}, 2: {4, 0}},
			wantCode: http.StatusOK,
		},
		{
			name: "one level below threshold", serving: true, minLiveness: 0.5,
			probes:   map[int][2]int{1: {4, 0}, 2: {1, 3}},
			wantCode: http.StatusServiceUnavailable, wantBody: "degraded",
		},
		{
			name: "exactly at threshold", serving: true, minLiveness: 0.5,
			probes:   map[int][2]int{1: {2, 2}},
			wantCode: http.StatusOK,
		},
		{
			name: "threshold zero disables the check", serving: true, minLiveness: 0,
			probes:   map[int][2]int{1: {0, 10}},
			wantCode: http.StatusOK,
		},
		{
			name: "fully dead level", serving: true, minLiveness: 0.25,
			probes:   map[int][2]int{1: {9, 1}, 3: {0, 2}},
			wantCode: http.StatusServiceUnavailable, wantBody: "degraded",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, tel := testNode(t)
			n.EnableHealth()
			for level, ld := range tc.probes {
				for i := 0; i < ld[0]; i++ {
					n.HealthTracker().Observe(level, true)
				}
				for i := 0; i < ld[1]; i++ {
					n.HealthTracker().Observe(level, false)
				}
			}
			serving := &atomic.Bool{}
			serving.Store(tc.serving)
			srv := httptest.NewServer(newAdminMux(n, tel, serving, tc.minLiveness, nil, nil, nil, nil))
			defer srv.Close()

			resp, err := http.Get(srv.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status %d, want %d (body %q)", resp.StatusCode, tc.wantCode, body)
			}
			if tc.wantBody != "" && !strings.Contains(string(body), tc.wantBody) {
				t.Errorf("body %q missing %q", body, tc.wantBody)
			}
		})
	}
}

// TestAdminHealthzTransition walks one mux through the serving lifecycle.
func TestAdminHealthzTransition(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	get := func() int {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Errorf("before serving: status %d, want 503", code)
	}
	serving.Store(true)
	if code := get(); code != http.StatusOK {
		t.Errorf("while serving: status %d, want 200", code)
	}
	serving.Store(false)
	if code := get(); code != http.StatusServiceUnavailable {
		t.Errorf("after shutdown began: status %d, want 503", code)
	}
}

func TestAdminDebugHealth(t *testing.T) {
	n, tel := testNode(t)
	n.EnableHealth()
	n.HealthTracker().Observe(1, true)
	n.HealthTracker().Observe(1, true)
	n.HealthTracker().Observe(1, false)
	n.HealthTracker().RoundDone()
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out struct {
		Digest health.Digest `json:"digest"`
		Rounds int64         `json:"rounds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Digest.Addr != n.Addr() || out.Rounds != 1 {
		t.Errorf("debug/health = %+v", out)
	}
	if len(out.Digest.Liveness) != 1 || out.Digest.Liveness[0].Live != 2 || out.Digest.Liveness[0].Dead != 1 {
		t.Errorf("liveness = %+v", out.Digest.Liveness)
	}

	text, err := http.Get(srv.URL + "/debug/health?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	for _, want := range []string{"rounds=1", "level  1 liveness 0.67", "2 live / 1 dead"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text body %q missing %q", body, want)
		}
	}
}

func TestAdminRepairEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	// Without a repairer the endpoint stays up and reports disabled.
	resp, err := http.Get(srv.URL + "/debug/repair")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Repair repair.Status `json:"repair"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Repair.Enabled {
		t.Errorf("repair enabled without a repairer: %+v", out.Repair)
	}

	// With a repairer that has run a round, the JSON carries the totals
	// and the text rendering names the verdict.
	rp := node.NewRepairer(n, time.Second, node.RepairConfig{Budget: 8}, 1)
	rp.Tick()
	resp2, err := http.Get(srv.URL + "/debug/repair")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Repair.Enabled || out.Repair.Rounds != 1 {
		t.Errorf("debug/repair = %+v", out.Repair)
	}

	text, err := http.Get(srv.URL + "/debug/repair?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	for _, want := range []string{"state    healthy", "rounds   1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text body %q missing %q", body, want)
		}
	}
}

func TestAdminExpvarAndPprof(t *testing.T) {
	n, tel := testNode(t)
	publishExpvar(tel)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["pgrid"]; !ok {
		t.Error("expvar output missing the pgrid map")
	}

	// Re-publishing with a fresh bundle must not panic (expvar globals) and
	// must serve the new bundle's counters.
	tel2 := telemetry.New(1)
	tel2.ServedRPC("info")
	publishExpvar(tel2)
	resp2, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), "pgrid_rpc_served_total") {
		t.Error("expvar pgrid map missing counters after re-publish")
	}

	pprofResp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer pprofResp.Body.Close()
	io.Copy(io.Discard, pprofResp.Body)
	if pprofResp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", pprofResp.StatusCode)
	}
}

func TestAdminBreakersEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)

	// A resilient transport over an always-offline peer: two calls at
	// threshold 2 open the breaker, which the endpoint must then report.
	rt := resilience.Wrap(node.NewLocalTransport(), resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 1},
		Breaker:  resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		Classify: node.Classify,
		Tel:      tel,
	})
	for i := 0; i < 2; i++ {
		rt.Call(7, &wire.Message{Kind: wire.KindInfo})
	}

	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, rt, nil, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/breakers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Breakers []resilience.BreakerView `json:"breakers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Breakers) != 1 || out.Breakers[0].Peer != 7 || out.Breakers[0].State != "open" {
		t.Fatalf("breakers = %+v, want peer 7 open", out.Breakers)
	}
	if out.Breakers[0].Until.IsZero() {
		t.Error("open breaker reports no retry_at time")
	}

	text, err := http.Get(srv.URL + "/debug/breakers?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(body), "open") {
		t.Errorf("text rendering missing the open breaker:\n%s", body)
	}

	// A mux without a resilient transport reports an empty set, not a 500.
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer bare.Close()
	emptyResp, err := http.Get(bare.URL + "/debug/breakers")
	if err != nil {
		t.Fatal(err)
	}
	defer emptyResp.Body.Close()
	if err := json.NewDecoder(emptyResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Breakers) != 0 {
		t.Errorf("nil transport reported breakers: %+v", out.Breakers)
	}
}

func TestAdminLatencyEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	// Feed both the client and served sides so the report carries two
	// scopes, plus the pool acquire-wait row.
	for i := 0; i < 100; i++ {
		tel.ClientRPC("query", time.Duration(i+1)*time.Millisecond, nil)
	}
	tel.ServedRPCDone("exchange", 3*time.Millisecond, false)
	tel.PoolAcquireWait(50 * time.Microsecond)

	resp, err := http.Get(srv.URL + "/debug/lat")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out struct {
		Latencies []telemetry.LatencySummary `json:"latencies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]telemetry.LatencySummary)
	for _, s := range out.Latencies {
		byKey[s.Scope+"/"+s.Kind] = s
	}
	q, ok := byKey["client/query"]
	if !ok {
		t.Fatalf("report %+v missing client/query", out.Latencies)
	}
	if q.Count != 100 {
		t.Errorf("client/query count = %d, want 100", q.Count)
	}
	// p50 of 1..100ms sits near 50ms; the histogram's relative error is
	// bounded by 1/32, leave slack for rank rounding.
	if q.P50 < 45e6 || q.P50 > 55e6 {
		t.Errorf("client/query p50 = %dns, want ~50ms", q.P50)
	}
	if q.P95 <= q.P50 || q.P999 < q.P95 {
		t.Errorf("quantiles not monotone: %+v", q)
	}
	if _, ok := byKey["served/exchange"]; !ok {
		t.Errorf("report %+v missing served/exchange", out.Latencies)
	}
	if _, ok := byKey["pool/acquire_wait"]; !ok {
		t.Errorf("report %+v missing pool/acquire_wait", out.Latencies)
	}

	text, err := http.Get(srv.URL + "/debug/lat?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	for _, want := range []string{"scope", "p999_ms", "client", "query", "served", "exchange"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text body %q missing %q", body, want)
		}
	}
}

func TestAdminSlowEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)

	rec := trace.NewRecorder(8)
	rec.Record(trace.Trace{
		TraceID: 0xabc,
		Found:   true,
		Spans:   []trace.Span{{ID: 0xabc, Peer: 3, LatencyNS: 7_500_000}},
	})
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, rec, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Total uint64        `json:"total"`
		Slow  []trace.Trace `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 1 || len(out.Slow) != 1 || out.Slow[0].TraceID != 0xabc {
		t.Fatalf("slow = %+v", out)
	}

	text, err := http.Get(srv.URL + "/debug/slow?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(body), "peer=3") || !strings.Contains(string(body), "7.500ms") {
		t.Errorf("text body %q missing the slow span", body)
	}

	// Without a recorder the endpoint reports an empty log, not a panic.
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer bare.Close()
	emptyResp, err := http.Get(bare.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer emptyResp.Body.Close()
	if err := json.NewDecoder(emptyResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 0 || len(out.Slow) != 0 {
		t.Errorf("nil recorder reported traces: %+v", out)
	}
}

// TestAdminSLOEndpoint drives the burn-rate engine through an injected
// latency tail and checks the breach — with its nonzero burn — is visible
// at /debug/slo in both renderings.
func TestAdminSLOEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)

	obj, err := slo.Parse("query:p90:5ms")
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_700_000_000, 0)
	eng := slo.NewEngine([]slo.Objective{obj}, func() time.Time { return clock })
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, eng, nil))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Healthy baseline across both windows.
	for i := 0; i < 70; i++ {
		tel.ServedRPCDone("query", time.Millisecond, false)
		eng.Tick(tel.MetricsSnapshot())
		clock = clock.Add(time.Minute)
	}
	var rep struct {
		Objectives []slo.Status `json:"objectives"`
	}
	if err := json.Unmarshal([]byte(get("/debug/slo")), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 1 || rep.Objectives[0].Breached {
		t.Fatalf("healthy /debug/slo = %+v", rep)
	}

	// Inject a latency tail: every request now blows the 5ms threshold.
	for i := 0; i < 70; i++ {
		for j := 0; j < 5; j++ {
			tel.ServedRPCDone("query", 80*time.Millisecond, false)
		}
		eng.Tick(tel.MetricsSnapshot())
		clock = clock.Add(time.Minute)
	}
	if err := json.Unmarshal([]byte(get("/debug/slo")), &rep); err != nil {
		t.Fatal(err)
	}
	st := rep.Objectives[0]
	if !st.Breached {
		t.Fatalf("tail not breached: %+v", st)
	}
	for _, w := range st.Windows {
		if w.Burn <= 0 {
			t.Fatalf("burn not visible: %+v", st.Windows)
		}
	}
	text := get("/debug/slo?format=text")
	if !strings.Contains(text, "BREACHED") || !strings.Contains(text, "query:p9:5ms") {
		t.Fatalf("text /debug/slo = %q", text)
	}

	// Without an engine the endpoint answers an empty report, not a 500.
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer bare.Close()
	if body := get2(t, bare.URL+"/debug/slo"); !strings.Contains(body, `"objectives":[]`) {
		t.Fatalf("nil-engine /debug/slo = %q", body)
	}
}

// TestAdminHistoryEndpoint records a few samples into a history ring and
// checks /debug/history serves the raw dump as JSON, the sparkline trend
// rendering as text, honors ?window= and ?limit=, and degrades to an
// empty dump (not a 500) without a ring.
func TestAdminHistoryEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)

	hist := telemetry.NewHistory(time.Second, time.Minute)
	clock := time.Unix(1_700_000_000, 0)
	hist.SetNow(func() time.Time { return clock })
	for i := 0; i < 4; i++ {
		tel.ServedRPC("query")
		tel.ServedRPCDone("query", 2*time.Millisecond, false)
		hist.Record(tel.MetricsSnapshot())
		clock = clock.Add(time.Second)
	}
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, hist))
	defer srv.Close()

	var out struct {
		History telemetry.HistoryDump `json:"history"`
	}
	if err := json.Unmarshal([]byte(get2(t, srv.URL+"/debug/history")), &out); err != nil {
		t.Fatal(err)
	}
	d := out.History
	if d.Schema != telemetry.MetricsSchemaVersion || d.IntervalNS != int64(time.Second) || len(d.Points) != 4 {
		t.Fatalf("dump head: schema %d interval %d points %d", d.Schema, d.IntervalNS, len(d.Points))
	}
	if rate, ok := d.Rate(telemetry.StatServedTotal, 0); !ok || rate != 1 {
		t.Fatalf("served rate over the dump = %v ok=%v, want 1/s", rate, ok)
	}
	if p, _ := d.Newest(); p.Snap.StartEpochNS == 0 {
		t.Fatal("points must carry the incarnation stamp")
	}

	if err := json.Unmarshal([]byte(get2(t, srv.URL+"/debug/history?limit=2")), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.History.Points) != 2 {
		t.Fatalf("?limit=2 returned %d points", len(out.History.Points))
	}

	text := get2(t, srv.URL+"/debug/history?format=text")
	for _, want := range []string{"trends", "rpc rate", "served p99", "▁"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering lacks %q:\n%s", want, text)
		}
	}

	if resp, err := http.Get(srv.URL + "/debug/history?window=nonsense"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window accepted: %d", resp.StatusCode)
	}

	// No ring configured: an empty schema-stamped dump, not an error.
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer bare.Close()
	if err := json.Unmarshal([]byte(get2(t, bare.URL+"/debug/history")), &out); err != nil {
		t.Fatal(err)
	}
	if out.History.Schema != telemetry.MetricsSchemaVersion || len(out.History.Points) != 0 {
		t.Fatalf("nil-ring dump = %+v", out.History)
	}
}

// TestAdminBadLimit: the views that take ?limit= refuse a negative or
// unparsable one the same way, and still serve a good one.
func TestAdminBadLimit(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil, nil, nil))
	defer srv.Close()

	for _, path := range []string{"/debug/traces", "/debug/slow", "/debug/history"} {
		for query, want := range map[string]int{
			"?limit=-1":            http.StatusBadRequest,
			"?limit=x":             http.StatusBadRequest,
			"?limit=3":             http.StatusOK,
			"?limit=3&format=text": http.StatusOK,
		} {
			resp, err := http.Get(srv.URL + path + query)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s%s = %d, want %d", path, query, resp.StatusCode, want)
			}
		}
	}
}

func get2(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
