package analysis

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
)

// trendDump builds a history dump by replaying per-interval served-query
// observations through one instrument set, snapshotting after each
// interval. errsAt marks which intervals observe errors.
func trendDump(t *testing.T, node int, interval time.Duration, perInterval [][]time.Duration, errsAt map[int]int) telemetry.HistoryDump {
	t.Helper()
	tel := telemetry.New(node)
	d := telemetry.HistoryDump{IntervalNS: int64(interval)}
	at := int64(1_000_000_000)
	d.Points = append(d.Points, telemetry.HistoryPoint{AtNS: at, Snap: tel.MetricsSnapshot()})
	for i, durs := range perInterval {
		nErr := errsAt[i]
		for j, dur := range durs {
			tel.ServedRPC("query")
			tel.ServedRPCTraced("query", dur, j < nErr, 0)
		}
		at += int64(interval)
		d.Points = append(d.Points, telemetry.HistoryPoint{AtNS: at, Snap: tel.MetricsSnapshot()})
	}
	return d
}

func TestAnalyzeTrendsSeriesAndRegression(t *testing.T) {
	const iv = time.Second
	// Four intervals: fast, fast, slow, slow — a 10x p99 regression
	// between window halves, at a steady 2 rpc/s.
	fast := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	slow := []time.Duration{20 * time.Millisecond, 30 * time.Millisecond}
	dumps := map[addr.Addr]telemetry.HistoryDump{
		0: trendDump(t, 0, iv, [][]time.Duration{fast, fast, slow, slow}, nil),
	}
	r, _ := AnalyzeTrends(dumps, nil)
	if r.Peers != 1 || r.IntervalNS != int64(iv) || r.Span != 4*iv || r.Resets != 0 {
		t.Fatalf("header = %+v", r)
	}
	byName := map[string]TrendSeries{}
	for _, s := range r.Series {
		byName[s.Name] = s
	}
	rate := byName["rpc rate"]
	if len(rate.Points) != 4 {
		t.Fatalf("rate series = %v", rate.Points)
	}
	for i, v := range rate.Points {
		if v != 2 {
			t.Errorf("rate[%d] = %v, want 2/s", i, v)
		}
	}
	p99 := byName["served p99"]
	if len(p99.Points) != 4 || p99.Points[0] <= 0 {
		t.Fatalf("p99 series = %v", p99.Points)
	}
	if p99.Points[3] < 4*p99.Points[0] {
		t.Fatalf("p99 series did not register the slowdown: %v", p99.Points)
	}
	var regression bool
	for _, f := range r.Findings {
		if f.Kind == "latency-regression" && f.Peer == addr.Nil {
			regression = true
		}
	}
	if !regression {
		t.Fatalf("no latency-regression finding: %+v", r.Findings)
	}
}

// TestLatencyRegressionFinding: a latency regression is a recent half of
// the window that stays slow, never one slow interval in a quiet window.
func TestLatencyRegressionFinding(t *testing.T) {
	fast := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	slow := []time.Duration{20 * time.Millisecond, 30 * time.Millisecond}
	quiet, blip := []time.Duration{time.Millisecond}, []time.Duration{50 * time.Millisecond}
	for _, tc := range []struct {
		name      string
		intervals [][]time.Duration
		want      bool
	}{
		{"fast, fast, slow, slow", [][]time.Duration{fast, fast, slow, slow}, true},
		{"recent half slow around an idle interval", [][]time.Duration{fast, fast, fast, slow, nil, slow}, true},
		{"steady low traffic, one slow interval in the recent half",
			[][]time.Duration{quiet, quiet, quiet, quiet, quiet, blip, quiet, quiet}, false},
		{"one slow interval closing the window", [][]time.Duration{quiet, quiet, quiet, blip}, false},
	} {
		r, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{0: trendDump(t, 0, time.Second, tc.intervals, nil)}, nil)
		got := false
		for _, f := range r.Findings {
			got = got || f.Kind == "latency-regression"
		}
		if got != tc.want {
			t.Errorf("%s: latency-regression %v, want %v (%+v)", tc.name, got, tc.want, r.Findings)
		}
	}
}

func TestAnalyzeTrendsErrorSpikeAndSLO(t *testing.T) {
	const iv = time.Second
	ok := []time.Duration{time.Millisecond, time.Millisecond}
	// The last interval turns every reply into a 50ms error.
	bad := []time.Duration{50 * time.Millisecond, 51 * time.Millisecond}
	dumps := map[addr.Addr]telemetry.HistoryDump{
		3: trendDump(t, 3, iv, [][]time.Duration{ok, ok, ok, bad}, map[int]int{3: 2}),
	}
	o, err := slo.Parse("query:p75:5ms")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := AnalyzeTrends(dumps, []slo.Objective{o})
	var spike bool
	for _, f := range r.Findings {
		if f.Kind == "error-spike" {
			spike = true
		}
	}
	if !spike {
		t.Fatalf("no error-spike finding: %+v", r.Findings)
	}
	// 2 of 8 over threshold = bad fraction 0.25, budget 0.25 → burn 1.0:
	// breached on the real window.
	if len(r.SLO) != 1 || !r.SLO[0].Breached {
		t.Fatalf("windowed SLO = %+v, want breached", r.SLO)
	}
	if st := r.SLO[0]; st.Total != 8 || st.Total-st.Good != 2 {
		t.Fatalf("windowed burn counts = %+v, want 2 of 8 slow", st)
	}
}

// TestAnalyzeTrendsSLOFollowsTheWindow: the verdict is the window's. A
// latency tail breaches the dump that holds it, and the window narrowed to
// the recovered intervals after it is healthy again, with data.
func TestAnalyzeTrendsSLOFollowsTheWindow(t *testing.T) {
	const iv = time.Second
	fast := []time.Duration{time.Millisecond, time.Millisecond}
	slow := []time.Duration{50 * time.Millisecond, 50 * time.Millisecond}
	d := trendDump(t, 0, iv, [][]time.Duration{fast, slow, slow, fast, fast}, nil)
	o, _ := slo.Parse("query:p90:5ms")
	whole, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{0: d}, []slo.Objective{o})
	if st := whole.SLO[0]; !st.Breached || st.Burn < 1 {
		t.Fatalf("window holding the tail = %+v, want breached", st)
	}
	d.Points = d.Points[len(d.Points)-3:] // the last two intervals
	recent, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{0: d}, []slo.Objective{o})
	if st := recent.SLO[0]; st.Breached || st.Burn != 0 || st.Total != 4 {
		t.Fatalf("recovered window = %+v, want 4 good events and no burn", st)
	}
}

func TestAnalyzeTrendsResetAndMultiPeerAlignment(t *testing.T) {
	const iv = time.Second
	steady := []time.Duration{time.Millisecond}
	long := trendDump(t, 0, iv, [][]time.Duration{steady, steady, steady, steady}, nil)
	short := trendDump(t, 1, iv, [][]time.Duration{steady, steady}, nil)
	// Peer 2 restarts between its two points: new epoch, counters rewound.
	pre := trendDump(t, 2, iv, [][]time.Duration{{time.Millisecond, time.Millisecond, time.Millisecond}}, nil)
	post := trendDump(t, 22, iv, [][]time.Duration{steady}, nil)
	restarted := telemetry.HistoryDump{IntervalNS: int64(iv),
		Points: []telemetry.HistoryPoint{
			pre.Points[len(pre.Points)-1],
			{AtNS: pre.Points[len(pre.Points)-1].AtNS + int64(iv), Snap: post.Points[len(post.Points)-1].Snap},
		}}

	o, _ := slo.Parse("query:p90:5ms")
	r, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{
		0: long, 1: short, 2: restarted,
	}, []slo.Objective{o})
	// The restart counts its post-restart observations: never a negative
	// total, and the pre-restart history cannot breach the steady window.
	if st := r.SLO[0]; st.Total <= 0 || st.Good > st.Total || st.Burn != 0 || st.Breached {
		t.Fatalf("objective across a restart = %+v", st)
	}
	if r.Resets != 1 {
		t.Fatalf("resets = %d, want 1 from the restarted peer", r.Resets)
	}
	var resetFinding bool
	for _, f := range r.Findings {
		if f.Kind == "counter-reset" && f.Peer == 2 {
			resetFinding = true
		}
	}
	if !resetFinding {
		t.Fatalf("no counter-reset finding for peer 2: %+v", r.Findings)
	}
	var rate TrendSeries
	for _, s := range r.Series {
		if s.Name == "rpc rate" {
			rate = s
		}
	}
	// Alignment on the newest interval: 4 columns from the longest ring;
	// the short ring contributes to the last 2, the restarted peer to the
	// last 1 — and its rewound counter adds its post-restart absolute
	// value, never a negative rate.
	if len(rate.Points) != 4 {
		t.Fatalf("aligned rate = %v, want 4 columns", rate.Points)
	}
	for i, v := range rate.Points {
		if v < 0 {
			t.Fatalf("rate[%d] = %v: a restart must never read negative", i, v)
		}
	}
	if rate.Points[0] != 1 || rate.Points[1] != 1 {
		t.Errorf("oldest columns = %v, want the long ring alone (1/s)", rate.Points[:2])
	}
	if rate.Points[3] <= rate.Points[0] {
		t.Errorf("newest column %v should stack all three peers (got series %v)", rate.Points[3], rate.Points)
	}
}

func TestRenderTrendReportAndSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 4}); got != "▁▂▄█" {
		t.Fatalf("sparkline = %q", got)
	}
	if got := Sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	if got := Sparkline([]float64{0, 0}); got != "▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}

	const iv = time.Second
	fast := []time.Duration{time.Millisecond}
	slow := []time.Duration{40 * time.Millisecond}
	dumps := map[addr.Addr]telemetry.HistoryDump{
		0: trendDump(t, 0, iv, [][]time.Duration{fast, fast, slow, slow}, nil),
	}
	o, _ := slo.Parse("query:p99:5ms")
	r, _ := AnalyzeTrends(dumps, []slo.Objective{o})
	var buf bytes.Buffer
	RenderTrendReport(&buf, r)
	out := buf.String()
	for _, want := range []string{"trends", "1 peers", "rpc rate", "served p99",
		"latency-regression", "query:p99:5ms", "▁"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeTrendsKindRows pins the per-kind section over synthetic rings:
// a kind's count is its calls at the newest point, its rate the calls over
// the newest interval (Δcount / Δt), its quantiles those of the window's
// calls, all merged across peers; a peer that restarted inside the window
// follows the ring's rule (RateSeries, WindowHist), counting its
// post-restart calls; a kind with no calls is left out.
func TestAnalyzeTrendsKindRows(t *testing.T) {
	const iv = 2 * time.Second
	point := func(at int, tel *telemetry.Instruments) telemetry.HistoryPoint {
		return telemetry.HistoryPoint{AtNS: int64(at) * int64(iv), Snap: tel.MetricsSnapshot()}
	}
	calls := func(tel *telemetry.Instruments, kind string, n int, d time.Duration) {
		for i := 0; i < n; i++ {
			tel.ClientRPC(kind, d, nil)
		}
	}

	// Peer 0: 4 queries at 1ms, then 6 at 10ms and 2 served gets.
	tel := telemetry.New(0)
	tel.SetStart(time.Unix(1, 0))
	steady := telemetry.HistoryDump{IntervalNS: int64(iv)}
	steady.Points = append(steady.Points, point(1, tel))
	calls(tel, "query", 4, time.Millisecond)
	steady.Points = append(steady.Points, point(2, tel))
	calls(tel, "query", 6, 10*time.Millisecond)
	for i := 0; i < 2; i++ {
		tel.ServedRPC("get")
		tel.ServedRPCTraced("get", 2*time.Millisecond, false, 0)
	}
	steady.Points = append(steady.Points, point(3, tel))
	// An idle kind the node counts at zero.
	newest := &steady.Points[2].Snap
	newest.Stats = append(newest.Stats, telemetry.Stat{Name: `pgrid_rpc_client_kind_total{kind="exchange"}`})

	// Peer 1: 50 queries at 1ms, then a restart and 3 queries at 100ms.
	before, after := telemetry.New(1), telemetry.New(1)
	before.SetStart(time.Unix(1, 0))
	after.SetStart(time.Unix(5, 0))
	restarted := telemetry.HistoryDump{IntervalNS: int64(iv)}
	restarted.Points = append(restarted.Points, point(1, before))
	calls(before, "query", 50, time.Millisecond)
	restarted.Points = append(restarted.Points, point(2, before))
	calls(after, "query", 3, 100*time.Millisecond)
	restarted.Points = append(restarted.Points, point(3, after))

	one, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{0: steady}, nil)
	if len(one.Kinds) != 2 {
		t.Fatalf("kinds = %+v, want client query and served get (the idle exchange left out)", one.Kinds)
	}
	q, g := one.Kinds[0], one.Kinds[1]
	if q.Scope != "client" || q.Kind != "query" || q.Count != 10 || q.Rate != 3 {
		t.Errorf("client query = %+v, want 10 calls at 6 calls / 2s = 3/s", q)
	}
	if q.P50 < 9_500_000 || q.P50 > 10_500_000 || q.P999 > 10_500_000 {
		t.Errorf("client query p50 %d, p999 %d: want the window's 6 of 10 calls at 10ms", q.P50, q.P999)
	}
	if g.Scope != "served" || g.Kind != "get" || g.Count != 2 || g.Rate != 1 || g.P99 < 1_900_000 || g.P99 > 2_100_000 {
		t.Errorf("served get = %+v, want 2 calls at 1/s, p99 2ms", g)
	}

	both, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{0: steady, 1: restarted}, nil)
	if both.Resets != 1 || len(both.Kinds) != 2 {
		t.Fatalf("merged: %d resets, kinds %+v", both.Resets, both.Kinds)
	}
	q = both.Kinds[0]
	// The restarted peer adds its 3 post-restart calls to the count, 3 / 2s
	// to the rate and its 3 calls at 100ms to the window — never the 50
	// before the restart, never a negative delta.
	if q.Count != 13 || q.Rate != 4.5 || q.Hist.Count != 13 {
		t.Errorf("merged client query = %+v, want 13 calls, 4.5/s, 13 in the window", q)
	}
	if q.P50 < 9_500_000 || q.P50 > 10_500_000 || q.P99 < 95_000_000 || q.P99 > 105_000_000 {
		t.Errorf("merged client query p50 %d, p99 %d: want 10ms and 100ms", q.P50, q.P99)
	}

	var buf bytes.Buffer
	RenderTrendReport(&buf, both)
	out := buf.String()
	for _, want := range []string{"rate/s", "client  query            13      4.5", "served  get               2      1.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "exchange") {
		t.Errorf("idle kind rendered:\n%s", out)
	}
}

// TestAnalyzeTrendsPoolWaitUnion: the pool-wait p99 series is the quantile of
// the union stream, like the served p99 series — three peers that each waited
// alike read the series one of them reads, never the sum of their quantiles.
func TestAnalyzeTrendsPoolWaitUnion(t *testing.T) {
	waited := func(node int) telemetry.HistoryDump {
		tel := telemetry.New(node)
		d := telemetry.HistoryDump{IntervalNS: int64(time.Second)}
		for i := 0; i < 3; i++ {
			for j := 0; j <= i; j++ {
				tel.PoolAcquireWait(time.Duration(i+1) * time.Millisecond)
			}
			d.Points = append(d.Points, telemetry.HistoryPoint{AtNS: int64(i+1) * int64(time.Second), Snap: tel.MetricsSnapshot()})
		}
		return d
	}
	poolP99 := func(dumps map[addr.Addr]telemetry.HistoryDump) []float64 {
		r, _ := AnalyzeTrends(dumps, nil)
		for _, s := range r.Series {
			if s.Name == "pool wait p99" {
				return s.Points
			}
		}
		t.Fatalf("no pool wait series: %+v", r.Series)
		return nil
	}
	one := poolP99(map[addr.Addr]telemetry.HistoryDump{0: waited(0)})
	if len(one) != 2 || one[0] < 1_900_000 || one[0] > 2_100_000 || one[1] < 2_900_000 || one[1] > 3_100_000 {
		t.Fatalf("one peer's pool wait p99 = %v, want 2ms then 3ms", one)
	}
	three := poolP99(map[addr.Addr]telemetry.HistoryDump{0: waited(0), 1: waited(1), 2: waited(2)})
	if !slices.Equal(three, one) {
		t.Errorf("three identical peers' pool wait p99 = %v, want one peer's %v", three, one)
	}
}
