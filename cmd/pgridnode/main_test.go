package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
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

// TestOutgoingStaleIdleConn: a pooled connection has no reader while idle, so
// a peer that restarts on the same endpoint between two calls is found by the
// next call. On the stack pgridnode builds that costs the call one Transient
// attempt, which the resilience layer retries on a fresh dial: the call
// succeeds after exactly one retry, and the pool counts the connection lost.
func TestOutgoingStaleIdleConn(t *testing.T) {
	n := node.New(1, core.Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}, node.NewLocalTransport(), 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := ln.Addr().String()
	srv := node.NewServer(n, ln)
	go srv.Serve(t.Context())
	pool, rt := outgoing(map[addr.Addr]string{1: ep}, 5*time.Second, 3, 1, nil)
	defer pool.Close()
	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if _, err := rt.Call(1, info); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if ln, err = net.Listen("tcp", ep); err != nil {
		t.Fatal(err)
	}
	srv = node.NewServer(n, ln)
	defer srv.Close()
	go srv.Serve(t.Context())

	if resp, err := rt.Call(1, info); err != nil || resp.InfoResp == nil {
		t.Fatalf("call after the peer restarted: %+v, %v", resp, err)
	}
	if got := rt.Retries(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if st := pool.Stats(); st.ConnLost != 1 || st.Dials != 2 {
		t.Errorf("pool stats = %+v, want one connection lost and a second dial", st)
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
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
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

// TestAdminLatencyEndpoint: the live latency view is the /metrics
// summaries — per-kind client and served quantiles and the pool's acquire
// wait, each with its count.
func TestAdminLatencyEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()

	// Feed both the client and served sides, plus the pool acquire wait.
	for i := 0; i < 100; i++ {
		tel.ClientRPC("query", time.Duration(i+1)*time.Millisecond, nil)
	}
	tel.ServedRPCTraced("exchange", 3*time.Millisecond, false, 0)
	tel.PoolAcquireWait(50 * time.Microsecond)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	value := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("%s = %q: %v", name, rest, err)
				}
				return v
			}
		}
		t.Fatalf("metrics output missing %s", name)
		return 0
	}
	q := func(family, labels, quantile string) float64 {
		return value(family + "{" + labels + `quantile="` + quantile + `"}`)
	}

	const client = "pgrid_rpc_kind_latency_ns"
	if c := value(client + `_count{kind="query"}`); c != 100 {
		t.Errorf("client query count = %v, want 100", c)
	}
	// p50 of 1..100ms sits near 50ms; the histogram's relative error is
	// bounded by 1/32, leave slack for rank rounding.
	p50, p95, p999 := q(client, `kind="query",`, "0.5"), q(client, `kind="query",`, "0.95"), q(client, `kind="query",`, "0.999")
	if p50 < 45e6 || p50 > 55e6 {
		t.Errorf("client query p50 = %vns, want ~50ms", p50)
	}
	if p95 <= p50 || p999 < p95 {
		t.Errorf("quantiles not monotone: p50 %v p95 %v p999 %v", p50, p95, p999)
	}
	if c := value(`pgrid_rpc_served_latency_ns_count{kind="exchange"}`); c != 1 {
		t.Errorf("served exchange count = %v, want 1", c)
	}
	q("pgrid_rpc_served_latency_ns", `kind="exchange",`, "0.999")
	q("pgrid_pool_acquire_wait_ns", "", "0.99")
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
			srv := httptest.NewServer(newAdminMux(n, tel, serving, tc.minLiveness, nil, nil))
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
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
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

// TestAdminExpvarAndPprof: /debug/vars is the standard expvar handler, with
// no pgrid mirror beside it (/metrics is the node's counters), and pprof is
// mounted.
func TestAdminExpvarAndPprof(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get2(t, srv.URL+"/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("expvar output missing the runtime memstats")
	}
	if _, ok := vars["pgrid"]; ok {
		t.Error("expvar output carries a pgrid mirror of /metrics")
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

	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, rt, nil))
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
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
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
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, rec))
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
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
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

// observeCommunity builds eight nodes over the in-process transport and runs
// meetings until their paths split, then gives node 0 what /debug/observe
// reads: health, a flight recorder holding traced routes, and a history ring
// of four samples on a fixed clock. Repair stays off; the test attaches it.
func observeCommunity(t *testing.T) (*node.Cluster, *telemetry.Instruments) {
	t.Helper()
	c := node.NewCluster(8, core.Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}, 1)
	for i := 0; i < 400; i++ {
		a, b := i%8, (i*5+3)%8
		if a != b {
			c.Nodes[a].Exchange(addr.Addr(b))
		}
	}
	n := c.Nodes[0]
	tel := telemetry.New(0)
	n.SetTelemetry(tel)
	n.EnableHealth()
	n.EnableTracing(trace.NewRecorder(16), 1)
	cl := node.NewClient(c.Transport, 1)
	for _, key := range []string{"0000", "0101", "1010", "1111"} {
		if _, err := cl.Route(n.Addr(), bitpath.Path(key), true); err != nil {
			t.Fatal(err)
		}
	}
	hist := telemetry.NewHistory(time.Second, time.Minute)
	clock := time.Unix(1_700_000_000, 0)
	hist.SetNow(func() time.Time { return clock })
	for i := 0; i < 4; i++ {
		tel.ServedRPC("query")
		tel.ServedRPCTraced("query", 2*time.Millisecond, false, 0)
		hist.Record(tel.MetricsSnapshot())
		clock = clock.Add(time.Second)
	}
	n.EnableHistory(hist)
	return c, tel
}

// TestAdminObserve holds /debug/observe to the answer a peer gets: for each
// column alone and all together, its JSON decodes deep-equal to
// Client.Observe's answer for the same request, without the GET counting a
// served RPC. ?limit caps the history points and the traces, ?window bounds
// the history, and a query the wire would refuse, or that asks what another
// surface serves or what a GET must not run, is a 400.
func TestAdminObserve(t *testing.T) {
	c, tel := observeCommunity(t)
	n := c.Nodes[0]
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()
	cl := node.NewClient(c.Transport, 1)

	served := func() int64 {
		for _, s := range tel.MetricsSnapshot().Stats {
			if s.Name == "pgrid_rpc_served_total" {
				return s.Value
			}
		}
		return 0
	}
	get := func(query string) *wire.ObserveResp {
		t.Helper()
		before := served()
		var o wire.ObserveResp
		if err := json.Unmarshal([]byte(get2(t, srv.URL+"/debug/observe?"+query)), &o); err != nil {
			t.Fatal(err)
		}
		if after := served(); after != before {
			t.Fatalf("GET ?%s counted %d served RPCs", query, after-before)
		}
		return &o
	}
	same := func(query string, req wire.ObserveReq) *wire.ObserveResp {
		t.Helper()
		got := get(query)
		want, err := cl.Observe(n.Addr(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("?%s:\n got %+v\nwant %+v", query, got, want)
		}
		return got
	}

	// Repair off answers a disabled status, as it does over the wire.
	if o := same("ask=repair", wire.ObserveReq{Asks: wire.AskRepair}); o.Repair.Enabled {
		t.Errorf("repair enabled without a repairer: %+v", o.Repair)
	}
	node.NewRepairer(n, time.Second, 1).Tick()

	all := wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness | wire.AskTraces | wire.AskRepair | wire.AskHistory}
	for _, tc := range []struct {
		query string
		req   wire.ObserveReq
	}{
		{"ask=health", wire.ObserveReq{Asks: wire.AskHealth}},
		{"ask=health,liveness", wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness}},
		{"ask=traces", wire.ObserveReq{Asks: wire.AskTraces}},
		{"ask=repair", wire.ObserveReq{Asks: wire.AskRepair}},
		{"ask=history", wire.ObserveReq{Asks: wire.AskHistory}},
		{"ask=history&window=2s", wire.ObserveReq{Asks: wire.AskHistory, WindowNS: int64(2 * time.Second)}},
		{"ask=health,liveness,traces,repair,history", all},
	} {
		same(tc.query, tc.req)
	}

	o := get("ask=health,liveness,traces,repair,history")
	if o.Health.Rounds != 1 || len(o.Health.Digest.Liveness) == 0 {
		t.Errorf("health after one repair round = %+v", o.Health)
	}
	if !o.Repair.Enabled || o.Repair.Rounds != 1 {
		t.Errorf("repair after one round = %+v", o.Repair)
	}
	if o.History == nil || len(o.History.Points) != 4 {
		t.Fatalf("history column = %+v, want the ring's 4 points", o.History)
	}
	if len(o.Traces.Traces) < 3 {
		t.Fatalf("flight recorder holds %d traces, want at least 3", len(o.Traces.Traces))
	}

	all.MaxPoints, all.TraceLimit = 2, 2
	capped := same("ask=health,liveness,traces,repair,history&limit=2", all)
	if len(capped.History.Points) != 2 || len(capped.Traces.Traces) != 2 {
		t.Errorf("?limit=2 kept %d points and %d traces", len(capped.History.Points), len(capped.Traces.Traces))
	}

	text := get2(t, srv.URL+"/debug/observe?ask=health,liveness,traces,repair,history&format=text")
	for _, want := range []string{"node addr(0) health (1 probe rounds)", "liveness", "node addr(0) repair\n",
		"rounds   1", "node addr(0) flight recorder: ", "route analysis:", "trends", "rpc rate", "served p99", "▁"} {
		if !strings.Contains(text, want) {
			t.Errorf("text view lacks %q:\n%s", want, text)
		}
	}

	for _, query := range []string{
		"",                            // no column named
		"ask=repair,repair-now",       // a GET runs no repair round
		"ask=bogus",                   // unknown
		"ask=liveness",                // the modifier without its column
		"ask=metrics",                 // /metrics serves it
		"ask=links",                   // the wire serves it
		"ask=traces&limit=-1",         // negative limit
		"ask=history&window=nonsense", // unparsable window
	} {
		if code := status(t, srv.URL+"/debug/observe?"+query); code != http.StatusBadRequest {
			t.Errorf("?%s = %d, want 400", query, code)
		}
	}
	if o, err := cl.Observe(n.Addr(), wire.ObserveReq{Asks: wire.AskRepair}); err != nil || o.Repair.Rounds != 1 {
		t.Errorf("repair after the refused queries = %+v, %v, want the one round the test ran", o, err)
	}
}

// observeJSON GETs /debug/observe?query from srv, checks it is served as
// JSON, and decodes the answer.
func observeJSON(t *testing.T, srv *httptest.Server, query string) wire.ObserveResp {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/observe?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?%s: status %d", query, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("?%s: Content-Type = %q", query, ct)
	}
	var o wire.ObserveResp
	if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestAdminDebugHealth: the health column carries the node's replica
// digest, the completed probe rounds and, with liveness asked, the
// per-level live/dead counts, in JSON and in the text rendering.
func TestAdminDebugHealth(t *testing.T) {
	n, tel := testNode(t)
	n.EnableHealth()
	n.HealthTracker().Observe(1, true)
	n.HealthTracker().Observe(1, true)
	n.HealthTracker().Observe(1, false)
	n.HealthTracker().RoundDone()
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()

	o := observeJSON(t, srv, "ask=health,liveness")
	if o.Health == nil || o.Health.Digest.Addr != n.Addr() || o.Health.Rounds != 1 {
		t.Fatalf("health = %+v", o.Health)
	}
	if lv := o.Health.Digest.Liveness; len(lv) != 1 || lv[0].Live != 2 || lv[0].Dead != 1 {
		t.Errorf("liveness = %+v", lv)
	}

	text := get2(t, srv.URL+"/debug/observe?ask=health,liveness&format=text")
	for _, want := range []string{"health (1 probe rounds)", "level  1 liveness 0.67", "2 live / 1 dead"} {
		if !strings.Contains(text, want) {
			t.Errorf("text body %q missing %q", text, want)
		}
	}
}

// TestAdminRepairEndpoint: without a repairer the repair column reports
// disabled; after one round it carries the totals, and the text rendering
// names the verdict.
func TestAdminRepairEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()

	if o := observeJSON(t, srv, "ask=repair"); o.Repair == nil || o.Repair.Enabled {
		t.Errorf("repair without a repairer = %+v", o.Repair)
	}
	if text := get2(t, srv.URL+"/debug/observe?ask=repair&format=text"); text != "node addr(0) repair\nrepair disabled\n" {
		t.Errorf("repair-off text = %q", text)
	}

	node.NewRepairer(n, time.Second, 1).Tick()
	if o := observeJSON(t, srv, "ask=repair"); o.Repair == nil || !o.Repair.Enabled || o.Repair.Rounds != 1 {
		t.Errorf("repair after one round = %+v", o.Repair)
	}
	text := get2(t, srv.URL+"/debug/observe?ask=repair&format=text")
	for _, want := range []string{"state    healthy", "rounds   1"} {
		if !strings.Contains(text, want) {
			t.Errorf("text body %q missing %q", text, want)
		}
	}
}

// TestAdminHistoryEndpoint: the history column is the ring's dump —
// interval and points stamped with the incarnation — capped by ?limit,
// rendered as trends in text, refusing a bad window, and an empty dump on a
// node without a ring.
func TestAdminHistoryEndpoint(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)

	hist := telemetry.NewHistory(time.Second, time.Minute)
	clock := time.Unix(1_700_000_000, 0)
	hist.SetNow(func() time.Time { return clock })
	for i := 0; i < 4; i++ {
		tel.ServedRPC("query")
		tel.ServedRPCTraced("query", 2*time.Millisecond, false, 0)
		hist.Record(tel.MetricsSnapshot())
		clock = clock.Add(time.Second)
	}
	bare := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer bare.Close()

	// No ring configured: an empty dump, not an error.
	if d := observeJSON(t, bare, "ask=history").History; d == nil || d.IntervalNS != 0 || len(d.Points) != 0 {
		t.Fatalf("nil-ring dump = %+v", d)
	}

	n.EnableHistory(hist)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()
	d := observeJSON(t, srv, "ask=history").History
	if d == nil || d.IntervalNS != int64(time.Second) || len(d.Points) != 4 {
		t.Fatalf("dump head = %+v", d)
	}
	for i, rate := range d.RateSeries(telemetry.StatServedTotal) {
		if rate != 1 {
			t.Errorf("served rate over interval %d = %v, want 1/s", i, rate)
		}
	}
	if p := d.Points[len(d.Points)-1]; p.Snap.StartEpochNS == 0 {
		t.Error("points must carry the incarnation stamp")
	}

	if d := observeJSON(t, srv, "ask=history&limit=2").History; d == nil || len(d.Points) != 2 {
		t.Errorf("?limit=2 dump = %+v", d)
	}

	text := get2(t, srv.URL+"/debug/observe?ask=history&format=text")
	for _, want := range []string{"trends", "rpc rate", "served p99", "▁"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering lacks %q:\n%s", want, text)
		}
	}

	if code := status(t, srv.URL+"/debug/observe?ask=history&window=nonsense"); code != http.StatusBadRequest {
		t.Errorf("bad window accepted: %d", code)
	}
}

// TestAdminBadLimit: the views that take ?limit= refuse a negative or
// unparsable one the same way, and still serve a good one.
func TestAdminBadLimit(t *testing.T) {
	n, tel := testNode(t)
	serving := &atomic.Bool{}
	serving.Store(true)
	srv := httptest.NewServer(newAdminMux(n, tel, serving, 0, nil, nil))
	defer srv.Close()

	for _, view := range []string{"/debug/slow?", "/debug/observe?ask=traces,history&"} {
		for query, want := range map[string]int{
			"limit=-1":            http.StatusBadRequest,
			"limit=x":             http.StatusBadRequest,
			"limit=3":             http.StatusOK,
			"limit=3&format=text": http.StatusOK,
		} {
			if code := status(t, srv.URL+view+query); code != want {
				t.Errorf("%s%s = %d, want %d", view, query, code, want)
			}
		}
	}
}

// status GETs url and returns the response code.
func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
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
