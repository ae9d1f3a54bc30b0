package slo

import (
	"testing"
	"time"

	"pgrid/internal/telemetry"
)

func TestParse(t *testing.T) {
	o, err := Parse("query:p99:5ms")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != "query" || o.Quantile != 0.99 || o.Threshold != 5*time.Millisecond {
		t.Fatalf("parsed = %+v", o)
	}
	if o.HistName() != `pgrid_rpc_served_latency_ns{kind="query"}` {
		t.Fatalf("hist name = %s", o.HistName())
	}
	if got := o.String(); got != "query:p99:5ms" {
		t.Fatalf("round trip = %s", got)
	}

	for _, spec := range []string{"query:p999:250ms", " exchange : p50 : 1s "} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
	for _, bad := range []string{"", "query", "query:99:5ms", "query:p0:5ms",
		"query:p100:5ms...", ":p99:5ms", "query:p99:0s", "query:p99:fast", "a:b:c:d"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}

	list, err := ParseList("query:p99:5ms, exchange:p95:50ms,")
	if err != nil || len(list) != 2 {
		t.Fatalf("ParseList = %v, %v", list, err)
	}
	if _, err := ParseList("query:p99:5ms,junk"); err == nil {
		t.Error("ParseList accepted junk element")
	}
}

// histOf builds a snapshot carrying a served-latency histogram for kind
// with the given observations.
func histOf(kind string, durs ...time.Duration) telemetry.MetricsSnapshot {
	tel := telemetry.New(0)
	for _, d := range durs {
		tel.ServedRPCTraced(kind, d, false, 0)
	}
	return tel.MetricsSnapshot()
}

func TestEvalOneShot(t *testing.T) {
	o := Objective{Kind: "query", Quantile: 0.9, Threshold: 5 * time.Millisecond}

	// 95 fast + 5 slow: bad frac 5% ≤ 10% budget → burn 0.5, healthy.
	durs := make([]time.Duration, 0, 100)
	for i := 0; i < 95; i++ {
		durs = append(durs, time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		durs = append(durs, 100*time.Millisecond)
	}
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	h, _ := histOf("query", durs...).Hist(o.HistName())
	st := Eval(o, h)
	if st.Breached || !near(st.Burn, 0.5) {
		t.Fatalf("healthy eval = %+v", st)
	}

	// 75 fast + 25 slow: bad frac 25% vs 10% budget → burn 2.5, breached.
	durs = durs[:0]
	for i := 0; i < 75; i++ {
		durs = append(durs, time.Millisecond)
	}
	for i := 0; i < 25; i++ {
		durs = append(durs, 100*time.Millisecond)
	}
	h, _ = histOf("query", durs...).Hist(o.HistName())
	st = Eval(o, h)
	if !st.Breached || !near(st.Burn, 2.5) {
		t.Fatalf("tail eval = %+v", st)
	}

	// An empty histogram is no data, never a breach.
	st = Eval(o, telemetry.QHistSnapshot{})
	if st.Breached || st.Total != 0 {
		t.Fatalf("empty eval = %+v", st)
	}
}

// TestEngineCounterReset: a restart inside the judged window, read the way
// a history reader judges it (the ring's window delta handed to Eval),
// never yields a negative count or burn, and the stale pre-restart tail
// cannot breach the healthy post-restart history.
func TestEngineCounterReset(t *testing.T) {
	o, _ := Parse("query:p90:5ms")
	clock := time.Unix(1_700_000_000, 0)
	ring := telemetry.NewHistory(time.Minute, time.Hour)
	ring.SetNow(func() time.Time { return clock })

	tel := telemetry.New(0)
	for i := 0; i < 10; i++ {
		tel.ServedRPCTraced("query", 50*time.Millisecond, false, 0)
		ring.Record(tel.MetricsSnapshot())
		clock = clock.Add(time.Minute)
	}
	// The process "restarts": counters start over from zero.
	time.Sleep(time.Millisecond) // a new incarnation stamp
	tel = telemetry.New(0)
	tel.ServedRPCTraced("query", time.Millisecond, false, 0)
	ring.Record(tel.MetricsSnapshot())
	clock = clock.Add(time.Minute)
	tel.ServedRPCTraced("query", time.Millisecond, false, 0)
	ring.Record(tel.MetricsSnapshot())

	d := ring.Dump(0, 0)
	if d.Resets() != 1 {
		t.Fatalf("resets in the dump = %d, want 1", d.Resets())
	}
	for _, window := range []time.Duration{5 * time.Minute, time.Hour} {
		// The 5m window's baseline predates the restart; the hour window
		// holds the whole dump, so it counts the newest state as is.
		h, reset, ok := d.WindowHist(o.HistName(), window)
		if !ok || reset != (window == 5*time.Minute) {
			t.Fatalf("%v window: ok=%v reset=%v", window, ok, reset)
		}
		st := Eval(o, h)
		if st.Burn < 0 || st.Total < 0 || st.Good < 0 {
			t.Fatalf("%v window: negative burn after reset: %+v", window, st)
		}
		// Post-reset history is healthy: no breach from the stale pre-reset tail.
		if st.Breached || st.Total != 2 || st.Good != 2 {
			t.Fatalf("%v window: reset verdict = %+v, want the 2 good post-restart events", window, st)
		}
	}
}
