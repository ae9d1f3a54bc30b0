package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Error("nil counter not inert")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Quantile("y", "") != nil || r.Snapshot() != nil {
		t.Error("nil registry not inert")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Error(err)
	}
	var in *Instruments
	in.ExchangeCase(ExCase1)
	in.ObserveQuery(true, 3, 1)
	in.ObserveUpdate("breadth-first", 4, 20)
	in.RefLiveness(2, true)
	in.ClientRPC("query", time.Millisecond, nil)
	in.ServedRPC("query")
	in.RPCKind(0, "query").Dropped()
	in.Emit(KindRound, nil)
	in.SetSink(NewJSONLSink(io.Discard))
	in.SetClock(nil)
	if in.EventsOn() {
		t.Error("nil instruments report events on")
	}
	if e, q, w := in.Totals(); e != 0 || q != 0 || w != 0 {
		t.Error("nil instruments report totals")
	}
	if in.Registry() != nil || in.Node() != -1 {
		t.Error("nil instruments expose state")
	}
}

func TestCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pgrid_test_total", "help")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if again := r.Counter("pgrid_test_total", "help"); again != c {
		t.Error("re-registration returned a different counter")
	}

	// Hop counts below 16 land in a bucket each, so their quantiles are
	// exact: the median of 0 1 2 3 3 3 4 5 8 100 is 3, its p95 8.
	h := r.Quantile("pgrid_test_hops", "help")
	for _, v := range []int64{0, 1, 2, 3, 3, 3, 4, 5, 8, 100} {
		h.Observe(v)
	}
	if h.Count() != 10 || h.Sum() != 129 {
		t.Errorf("count=%d sum=%d, want 10/129", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	want := map[string]int64{
		"pgrid_test_total":                 3,
		`pgrid_test_hops{quantile="0.5"}`:  3,
		`pgrid_test_hops{quantile="0.95"}`: 8,
		"pgrid_test_hops_sum":              129,
		"pgrid_test_hops_count":            10,
	}
	got := map[string]int64{}
	for _, s := range snap {
		got[s.Name] = s.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("pgrid_case_total", "case", "1"), "cases").Add(5)
	r.Counter(Label("pgrid_case_total", "case", "2"), "cases").Add(7)
	r.Quantile("pgrid_hops", "hops").Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pgrid_case_total counter",
		`pgrid_case_total{case="1"} 5`,
		`pgrid_case_total{case="2"} 7`,
		"# TYPE pgrid_hops summary",
		`pgrid_hops{quantile="0.5"} 3`,
		"pgrid_hops_sum 3",
		"pgrid_hops_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One family header even with two labeled members.
	if strings.Count(out, "# TYPE pgrid_case_total counter") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

func TestInstrumentsCountersFlow(t *testing.T) {
	in := New(7)
	in.ExchangeCase(ExCase1)
	in.ExchangeCase(ExCase4)
	in.ExchangeCase(ExCaseReplica)
	in.ExchangeCase(-99) // clamps to none
	in.ObserveQuery(true, 3, 1)
	in.ObserveQuery(false, 0, 2)
	in.ObserveUpdate("breadth-first", 4, 20)
	in.RefLiveness(2, true)
	in.RefLiveness(2, false)
	in.ClientRPC("query", 2*time.Millisecond, nil)
	in.ClientRPC("exchange", time.Millisecond, errTest)
	in.ServedRPC("info")
	in.RPCKind(4, "apply").Dropped()

	ex, q, werr := in.Totals()
	if ex != 4 || q != 2 || werr != 2 {
		t.Errorf("Totals = %d,%d,%d, want 4,2,2", ex, q, werr)
	}
	got := map[string]int64{}
	for _, s := range in.Registry().Snapshot() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]int64{
		"pgrid_exchange_total":                                4,
		`pgrid_exchange_case_total{case="1"}`:                 1,
		`pgrid_exchange_case_total{case="4"}`:                 1,
		`pgrid_exchange_case_total{case="replica"}`:           1,
		`pgrid_exchange_case_total{case="none"}`:              1,
		"pgrid_query_total":                                   2,
		"pgrid_query_failed_total":                            1,
		"pgrid_query_backtracks_total":                        3,
		`pgrid_update_rounds_total{strategy="breadth-first"}`: 1,
		"pgrid_update_replicas_total":                         4,
		"pgrid_update_messages_total":                         20,
		`pgrid_refs_level_live_total{level="2"}`:              1,
		`pgrid_refs_level_dead_total{level="2"}`:              1,
		"pgrid_rpc_client_total":                              2,
		"pgrid_rpc_client_errors_total":                       1,
		"pgrid_rpc_dropped_total":                             1,
		`pgrid_rpc_served_kind_total{kind="info"}`:            1,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	if got[`pgrid_rpc_kind_latency_ns_count{kind="query"}`] != 1 || got["pgrid_query_hops_count"] != 2 {
		t.Errorf("query latency count = %d, hops count = %d, want 1 and 2",
			got[`pgrid_rpc_kind_latency_ns_count{kind="query"}`], got["pgrid_query_hops_count"])
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test error" }

func TestInstrumentsConcurrency(t *testing.T) {
	in := New(0)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	in.SetSink(sink)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.ExchangeCase(i % 6)
				in.ObserveQuery(i%2 == 0, i%8, i%3)
				in.ClientRPC("query", time.Duration(i), nil)
				in.RefLiveness(i%5, i%2 == 0)
				in.ObserveUpdate("repeated-dfs", 1, 2)
				if i%100 == 0 {
					in.Emit(KindRound, map[string]any{"i": i})
				}
			}
		}(w)
	}
	wg.Wait()
	if ex, _, _ := in.Totals(); ex != 8000 {
		t.Errorf("exchanges = %d, want 8000", ex)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(decodeEvents(t, buf.Bytes())); n != 80 {
		t.Errorf("round events = %d, want 80", n)
	}
	var sb strings.Builder
	if err := in.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pgrid_test_level", "help")
	g.Set(42)
	g.Set(-7) // gauges go down too
	if g.Value() != -7 || g.Name() != "pgrid_test_level" {
		t.Errorf("gauge = %d (%q), want -7", g.Value(), g.Name())
	}
	if again := r.Gauge("pgrid_test_level", "help"); again != g {
		t.Error("re-registration returned a different gauge")
	}

	found := false
	for _, s := range r.Snapshot() {
		if s.Name == "pgrid_test_level" && s.Value == -7 {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot missing gauge: %+v", r.Snapshot())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# TYPE pgrid_test_level gauge", "pgrid_test_level -7"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output %q missing %q", out, want)
		}
	}

	var nilG *Gauge
	nilG.Set(5)
	if nilG.Value() != 0 || nilG.Name() != "" {
		t.Error("nil gauge not inert")
	}
	var nilR *Registry
	if nilR.Gauge("x", "") != nil {
		t.Error("nil registry returned a gauge")
	}
}

func TestObserveHealth(t *testing.T) {
	in := New(3)
	in.ObserveHealth(4, 17, 2, 750, 500, 9)
	got := map[string]int64{}
	for _, s := range in.Registry().Snapshot() {
		got[s.Name] = s.Value
	}
	want := map[string]int64{
		"pgrid_health_path_len":                    4,
		"pgrid_health_entries":                     17,
		"pgrid_health_buddies":                     2,
		"pgrid_health_liveness_permille":           750,
		"pgrid_health_level_liveness_min_permille": 500,
		"pgrid_health_probe_rounds":                9,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	// Gauges hold the latest refresh, not an accumulation.
	in.ObserveHealth(4, 17, 2, -1, -1, 10)
	for _, s := range in.Registry().Snapshot() {
		if s.Name == "pgrid_health_liveness_permille" && s.Value != -1 {
			t.Errorf("liveness gauge = %d, want -1 after refresh", s.Value)
		}
	}

	var nilIn *Instruments
	nilIn.ObserveHealth(1, 2, 3, 4, 5, 6) // must not panic
}
