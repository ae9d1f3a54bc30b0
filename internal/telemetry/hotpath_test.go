package telemetry

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pgrid/internal/raceflag"
)

// TestAllocBudgetHotPath: after its first use, every per-message
// observation is allocation-free.
func TestAllocBudgetHotPath(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	in := New(1)
	in.EnableExemplars(0.99)
	failed := errors.New("failed")
	for name, f := range map[string]func(){
		"RPCKind.Client":       func() { in.RPCKind(0, "query").Client(time.Millisecond, nil) },
		"RPCKind.Client/error": func() { in.RPCKind(0, "query").Client(time.Millisecond, failed) },
		"RPCKind.Served+Done": func() {
			k := in.RPCKind(6, "get")
			k.Served()
			k.ServedDone(time.Millisecond, true, 42)
		},
		"RPCKind beyond the table": func() { in.RPCKind(200, "kind(200)").Served() },
		"ClientRPC by label":       func() { in.ClientRPC("query", time.Millisecond, nil) },
		"ServedRPC+Traced by label": func() {
			in.ServedRPC("query")
			in.ServedRPCTraced("query", time.Millisecond, false, 0)
		},
		"ResilienceOutcome": func() { in.ResilienceOutcome(OutcomeOK) },
		"RefLiveness":       func() { in.RefLiveness(3, true); in.RefLiveness(3, false) },
		"PeerError":         func() { in.PeerError(1234, ErrClassClosed) },
	} {
		f() // first use registers
		if got := testing.AllocsPerRun(200, f); got != 0 {
			t.Errorf("%s: %.1f allocs per call after first use, want 0", name, got)
		}
	}
}

// TestLazySlotsRaceFirstUse: goroutines racing the first use of one kind,
// by code and by label at once, end with one instrument per family holding
// every observation.
func TestLazySlotsRaceFirstUse(t *testing.T) {
	const n = 64
	in := New(1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				in.RPCKind(6, "get").Client(time.Duration(i), nil)
				in.RPCKind(6, "get").Served()
			} else {
				in.ClientRPC("get", time.Duration(i), nil)
				in.ServedRPC("get")
			}
			in.ResilienceOutcome(OutcomeTransient)
			in.RefLiveness(5, true)
			in.PeerError(9, ErrClassTimeout)
		}(i)
	}
	close(start)
	wg.Wait()

	seen := map[string]int{}
	value := map[string]int64{}
	for _, s := range in.Registry().Snapshot() {
		seen[s.Name]++
		value[s.Name] = s.Value
	}
	for _, name := range []string{
		`pgrid_rpc_client_kind_total{kind="get"}`,
		`pgrid_rpc_kind_latency_ns_count{kind="get"}`,
		`pgrid_rpc_served_kind_total{kind="get"}`,
		`pgrid_resilience_outcome_total{class="transient"}`,
		`pgrid_refs_level_live_total{level="5"}`,
		`pgrid_rpc_peer_errors_total{class="timeout",peer="9"}`,
	} {
		if seen[name] != 1 || value[name] != n {
			t.Errorf("%s: registered %d times with sum %d, want once with %d", name, seen[name], value[name], n)
		}
	}
}

// The string-keyed observations the indexed path replaced, kept as the
// reference the equivalence test compares against: every call renders its
// label and goes through the labeled maps.
type labeledPath struct{ t *Instruments }

func (r labeledPath) clientRPC(kind string, d time.Duration, err error) {
	t := r.t
	t.rpcTotal.Inc()
	t.labeledCounter("pgrid_rpc_client_kind_total", "kind", kind, "outbound RPCs by message kind").Inc()
	t.latencyQ("pgrid_rpc_kind_latency_ns", kind, "outbound RPC round-trip latency by message kind, in nanoseconds").Observe(int64(d))
	if err != nil {
		t.rpcErrors.Inc()
		t.labeledCounter("pgrid_rpc_client_kind_errors_total", "kind", kind, "failed outbound RPCs by message kind").Inc()
	}
}

func (r labeledPath) servedRPC(kind string) {
	r.t.served.Inc()
	r.t.labeledCounter("pgrid_rpc_served_kind_total", "kind", kind, "inbound RPCs by message kind").Inc()
}

func (r labeledPath) servedRPCTraced(kind string, d time.Duration, isErr bool, traceID uint64) {
	t := r.t
	t.latencyQ("pgrid_rpc_served_latency_ns", kind, "inbound RPC handling latency by message kind, in nanoseconds").ObserveTraced(int64(d), traceID)
	if isErr {
		t.servedErrors.Inc()
		t.labeledCounter("pgrid_rpc_served_kind_errors_total", "kind", kind, "inbound RPCs answered with an error reply, by message kind").Inc()
	}
}

func (r labeledPath) labeled(total *Counter, family, key, value, help string) {
	total.Inc()
	r.t.labeledCounter(family, key, value, help).Inc()
}

func (r labeledPath) outcome(class string) {
	r.t.labeledCounter("pgrid_resilience_outcome_total", "class", class, "resilient calls by final outcome").Inc()
}

func (r labeledPath) peerError(peer int, class string) {
	full := "pgrid_rpc_peer_errors_total{class=" + strconv.Quote(class) + ",peer=" + strconv.Quote(strconv.Itoa(peer)) + "}"
	r.t.cachedCounter(full, "failed outbound RPCs by peer and error class").Inc()
}

func (r labeledPath) refLiveness(level int, live bool) {
	t := r.t
	lvl := strconv.Itoa(level)
	l := t.reg.Counter(Label("pgrid_refs_level_live_total", "level", lvl), "live reference probes by level")
	d := t.reg.Counter(Label("pgrid_refs_level_dead_total", "level", lvl), "dead reference probes by level")
	if live {
		t.refsLive.Inc()
		l.Inc()
	} else {
		t.refsDead.Inc()
		d.Inc()
	}
}

// TestIndexedPathEquivalence: a mixed sequence of RPC observations through
// the indexed path leaves every read surface exactly as the string-keyed
// path left it — same names, help, order, values and exemplars — whether
// exemplars are enabled before the first use or after it.
func TestIndexedPathEquivalence(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	failed := errors.New("failed")
	for _, exemplarsFirst := range []bool{true, false} {
		got, want := New(3), New(3)
		got.SetStart(epoch)
		want.SetStart(epoch)
		ref := labeledPath{want}
		enable := func() {
			got.EnableExemplars(0.5)
			want.EnableExemplars(0.5)
		}
		if exemplarsFirst {
			enable()
		}
		for i := 0; i < 200; i++ {
			d := time.Duration(i+1) * 37 * time.Microsecond
			trace := uint64(1000 + i)
			if i == 100 && !exemplarsFirst {
				enable()
			}
			// Served and client traffic of several kinds, interleaved so
			// families register in an order only the sequence decides.
			got.RPCKind(0, "query").Served()
			ref.servedRPC("query")
			if i%3 == 0 {
				got.RPCKind(6, "get").Client(d, nil)
				ref.clientRPC("get", d, nil)
			}
			got.RPCKind(0, "query").ServedDone(d, i%50 == 7, trace)
			ref.servedRPCTraced("query", d, i%50 == 7, trace)
			var err error
			if i%40 == 9 {
				err = failed
			}
			got.RPCKind(0, "query").Client(2*d, err)
			ref.clientRPC("query", 2*d, err)
			if i%25 == 3 {
				got.ServedRPC("kind(77)") // by label: a kind with no slot
				got.ServedRPCTraced("kind(77)", d, true, 0)
				ref.servedRPC("kind(77)")
				ref.servedRPCTraced("kind(77)", d, true, 0)
				got.RPCKind(200, "kind(200)").Served()
				ref.servedRPC("kind(200)")
			}
			if i%20 == 1 {
				got.RPCKind(4, "apply").Retry()
				ref.labeled(want.resRetries, "pgrid_resilience_retries_kind_total", "kind", "apply", "retries by message kind")
				got.RPCKind(4, "apply").Dropped()
				ref.labeled(want.rpcDropped, "pgrid_rpc_dropped_kind_total", "kind", "apply", "dropped RPCs by message kind")
				got.RPCKind(0, "query").Slow()
				ref.labeled(want.rpcSlow, "pgrid_rpc_slow_kind_total", "kind", "query", "slow outbound RPCs by message kind")
				got.RPCKind(8, "info").Malformed()
				ref.labeled(want.rpcMalformed, "pgrid_rpc_malformed_kind_total", "kind", "info", "malformed responses by request kind")
				got.PeerError(i, ErrClassTimeout)
				ref.peerError(i, "timeout")
				got.PeerError(5, ErrClassApp)
				ref.peerError(5, "app")
			}
			got.ResilienceOutcome(Outcome(i % int(numOutcomes)))
			ref.outcome(outcomeNames[i%int(numOutcomes)])
			got.RefLiveness(i%4, i%3 != 0)
			ref.refLiveness(i%4, i%3 != 0)
		}

		// pgrid_node_uptime_ns and the Go runtime gauges read the clock
		// and the heap; everything else must match to the byte.
		volatile := func(name string) bool {
			return strings.HasPrefix(name, StatUptime) || strings.HasPrefix(name, "pgrid_go_")
		}
		prom := func(in *Instruments) string {
			var b bytes.Buffer
			if err := in.Registry().WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, line := range strings.Split(b.String(), "\n") {
				if !volatile(line) {
					kept = append(kept, line)
				}
			}
			return strings.Join(kept, "\n")
		}
		stats := func(in []Stat) []Stat {
			var kept []Stat
			for _, s := range in {
				if !volatile(s.Name) {
					kept = append(kept, s)
				}
			}
			return kept
		}
		if g, w := prom(got), prom(want); g != w {
			t.Errorf("exemplarsFirst=%v: WritePrometheus differs\n--- indexed\n%s\n--- labeled\n%s", exemplarsFirst, g, w)
		}
		if g, w := stats(got.Registry().Snapshot()), stats(want.Registry().Snapshot()); !reflect.DeepEqual(g, w) {
			t.Errorf("exemplarsFirst=%v: Registry.Snapshot differs", exemplarsFirst)
		}
		gm, wm := got.MetricsSnapshot(), want.MetricsSnapshot()
		gm.UptimeNS, wm.UptimeNS = 0, 0
		gm.Stats, wm.Stats = stats(gm.Stats), stats(wm.Stats)
		if !reflect.DeepEqual(gm, wm) {
			t.Errorf("exemplarsFirst=%v: MetricsSnapshot differs", exemplarsFirst)
		}
		exemplars := 0
		for _, h := range gm.Hists {
			exemplars += len(h.ExTrace)
		}
		if exemplars == 0 {
			t.Errorf("exemplarsFirst=%v: no exemplar captured on the indexed path", exemplarsFirst)
		}
		if g, w := got.LatencyReport(), want.LatencyReport(); !reflect.DeepEqual(g, w) || len(g) == 0 {
			t.Errorf("exemplarsFirst=%v: LatencyReport differs:\n%v\n%v", exemplarsFirst, g, w)
		}
	}
}
