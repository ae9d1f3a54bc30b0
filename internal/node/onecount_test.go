package node

import (
	"context"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/resilience"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// stats flattens one snapshot of the instruments' registry into a map.
func stats(tel *telemetry.Instruments) map[string]int64 {
	out := map[string]int64{}
	for _, s := range tel.MetricsSnapshot().Stats {
		out[s.Name] = s.Value
	}
	return out
}

// TestHealthGaugesReadTheNode: the pgrid_health_* gauges read the peer and
// its tracker when asked — path length, store size, known replicas, the
// liveness ratios in permille (-1 before any probe) and the probe rounds.
func TestHealthGaugesReadTheNode(t *testing.T) {
	n := New(3, smallCfg(), nil, 1)
	tel := telemetry.New(3)
	n.SetTelemetry(tel)
	path := bitpath.MustParse("0110")
	for level := 1; level <= path.Len(); level++ {
		if !n.Peer().ExtendFrom(path.Prefix(level-1), path.Bit(level), addr.NewSet(addr.Addr(10+level))) {
			t.Fatalf("extend at level %d", level)
		}
	}
	for i := 0; i < 17; i++ {
		n.Store().Apply(store.Entry{Key: path, Name: string(rune('a' + i)), Holder: 3, Version: 1})
	}
	n.Peer().AddBuddy(5)
	n.Peer().AddBuddy(6)

	check := func(when string, want map[string]int64) {
		t.Helper()
		got := stats(tel)
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s: %s = %d, want %d", when, name, got[name], v)
			}
		}
	}
	before := map[string]int64{
		"pgrid_health_path_len":                    4,
		"pgrid_health_entries":                     17,
		"pgrid_health_buddies":                     2,
		"pgrid_health_liveness_permille":           -1,
		"pgrid_health_level_liveness_min_permille": -1,
		"pgrid_health_probe_rounds":                0,
	}
	check("no tracker", before)
	tr := n.EnableHealth()
	tr.RoundDone() // a round that probed nothing
	before["pgrid_health_probe_rounds"] = 1
	check("no probe yet", before)

	// Level 1: 2 of 4 live; level 2: 4 of 4 — 750 overall, 500 at worst.
	for i := 0; i < 4; i++ {
		tr.Observe(1, i < 2)
		tr.Observe(2, true)
	}
	for i := 0; i < 8; i++ {
		tr.RoundDone()
	}
	check("after probes", map[string]int64{
		"pgrid_health_path_len":                    4,
		"pgrid_health_entries":                     17,
		"pgrid_health_buddies":                     2,
		"pgrid_health_liveness_permille":           750,
		"pgrid_health_level_liveness_min_permille": 500,
		"pgrid_health_probe_rounds":                9,
	})
	// Live, not the state at the last round: a lost replica shows at once.
	n.Peer().RemoveBuddy(6)
	check("after a buddy left", map[string]int64{"pgrid_health_buddies": 1})
}

// TestHealthRatiosReadTheLeast: two nodes on one Instruments list their
// liveness ratios under one name, and a ratio does not sum: the gauges read
// the least ratio over the nodes that have probed, -1 only while neither has.
func TestHealthRatiosReadTheLeast(t *testing.T) {
	tel := telemetry.New(0)
	var trackers [2]*health.Tracker
	for i := range trackers {
		n := New(addr.Addr(i), smallCfg(), nil, 1)
		n.SetTelemetry(tel)
		trackers[i] = n.EnableHealth()
	}
	check := func(when string, overall, level int64) {
		t.Helper()
		got := stats(tel)
		if got["pgrid_health_liveness_permille"] != overall || got["pgrid_health_level_liveness_min_permille"] != level {
			t.Errorf("%s: liveness %d, level minimum %d; want %d, %d", when, got["pgrid_health_liveness_permille"],
				got["pgrid_health_level_liveness_min_permille"], overall, level)
		}
	}
	check("neither probed", -1, -1)
	// Node 0: level 1 all live, level 2 half — 750 overall, 500 at worst.
	for i := 0; i < 2; i++ {
		trackers[0].Observe(1, true)
		trackers[0].Observe(2, i == 0)
	}
	check("one probed", 750, 500)
	// Node 1: everything live — the least is still node 0's.
	trackers[1].Observe(1, true)
	check("both probed", 750, 500)
	// Node 1 sees a quarter live at level 1: it is now the least overall.
	for i := 0; i < 3; i++ {
		trackers[1].Observe(1, false)
	}
	check("both probed, node 1 worse", 250, 250)
}

// TestOneCount runs a pooled, resilient TCP community with repair on — nodes
// 0 and 1 on one shared set of instruments, node 2 on its own — kills node 2
// and lets the others repair, search and meet against it. Afterwards every
// pool, resilience, repair and health series reads what its owners keep:
// PoolStats, the calls that returned, Breakers, Retries, Budget.Tokens,
// Status and Digest, summed over the owners that share the instruments. A
// total is the sum of its parts: RPCs of their kinds, resilient calls of
// their outcomes, retries of their kinds, exchanges of their Fig. 3 cases,
// probes of their levels, and searches the count of the hop histogram.
func TestOneCount(t *testing.T) {
	const nNodes = 3
	shared, own := telemetry.New(0), telemetry.New(2)
	tels := [nNodes]*telemetry.Instruments{shared, shared, own}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	nodes := make([]*Node, nNodes)
	pools := make([]*PoolTransport, nNodes)
	rts := make([]*resilience.ResilientTransport, nNodes)
	budgets := make([]*resilience.Budget, nNodes)
	repairers := make([]*Repairer, nNodes)
	calls := make([]*returnedTransport, nNodes)
	servers := make([]*Server, nNodes)
	endpoints := make([]string, nNodes)
	lns := make([]net.Listener, nNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], endpoints[i] = ln, ln.Addr().String()
	}
	for i := 0; i < nNodes; i++ {
		pt := NewPoolTransport(PoolConfig{DialTimeout: time.Second, IOTimeout: time.Second})
		defer pt.Close()
		pt.SetTelemetry(tels[i])
		for j, ep := range endpoints {
			pt.SetEndpoint(addr.Addr(j), ep)
		}
		budgets[i] = resilience.NewBudget(0.1, 0)
		rts[i] = resilience.Wrap(pt, resilience.Options{
			Retry:    resilience.Policy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond},
			Budget:   budgets[i],
			Breaker:  resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
			Classify: Classify,
			Seed:     int64(i),
			Tel:      tels[i],
			OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
				if to == resilience.StateOpen {
					pt.Evict(peer)
				}
			},
		})
		pools[i] = pt
		calls[i] = &returnedTransport{inner: rts[i]}
		nodes[i] = New(addr.Addr(i), smallCfg(), InstrumentTransport(calls[i], tels[i]), int64(100+i))
		nodes[i].SetTelemetry(tels[i])
		nodes[i].Store().Apply(store.Entry{Key: bitpath.MustParse("0"), Name: "f", Holder: addr.Addr(i), Version: uint64(i + 1)})
		repairers[i] = NewRepairer(nodes[i], time.Hour, int64(200+i))
		servers[i] = NewServer(nodes[i], lns[i])
		go servers[i].Serve(ctx)
	}
	wireHealthFixture(t, nodes)

	for round := 0; round < 2; round++ {
		for _, r := range repairers {
			r.Tick()
		}
	}
	servers[2].Close() // node 2 goes away; the others repair, search and meet against it
	for round := 0; round < 3; round++ {
		repairers[0].Tick()
		repairers[1].Tick()
		for _, key := range []string{"0", "10", "11"} {
			nodes[0].Query(bitpath.MustParse(key))
			nodes[1].Query(bitpath.MustParse(key))
		}
		nodes[0].Exchange(1)
		nodes[1].Exchange(2)
	}

	for _, group := range [][]int{{0, 1}, {2}} {
		tel := tels[group[0]]
		// Listed even at zero: nobody waits once the run is over, and a
		// breaker may be closed again.
		want := map[string]int64{"pgrid_pool_queue_depth": 0, "pgrid_resilience_breakers_open": 0, "pgrid_resilience_breakers_half_open": 0,
			"pgrid_health_liveness_permille": -1, "pgrid_health_level_liveness_min_permille": -1}
		faults, heals := map[string]int64{}, map[string]int64{}
		for _, i := range group {
			ps := pools[i].Stats()
			want["pgrid_pool_conns_open"] += ps.Open
			want["pgrid_pool_requests_in_flight"] += ps.InFlight
			want["pgrid_pool_dials_total"] += ps.Dials
			want["pgrid_pool_reuses_total"] += ps.Reuses
			want["pgrid_pool_evictions_total"] += ps.Evictions
			want["pgrid_pool_idle_closes_total"] += ps.IdleClose
			want["pgrid_pool_conn_lost_total"] += ps.ConnLost
			want["pgrid_resilience_calls_total"] += calls[i].n.Load()
			for _, b := range rts[i].Breakers() {
				want["pgrid_resilience_breaker_opens_total"] += b.Opens
				switch b.State {
				case "open":
					want["pgrid_resilience_breakers_open"]++
				case "half-open":
					want["pgrid_resilience_breakers_half_open"]++
				}
			}
			want["pgrid_resilience_retry_budget_tokens_milli"] += int64(math.Round(budgets[i].Tokens() * 1000))
			want["pgrid_resilience_retries_total"] += rts[i].Retries()
			st := repairers[i].Status()
			want["pgrid_repair_rounds_total"] += st.Rounds
			want["pgrid_repair_messages_total"] += st.Messages
			want["pgrid_repair_unhealed"] += st.LastUnhealed
			for _, f := range st.Faults {
				faults[f.Name] += f.N
			}
			for _, h := range st.Heals {
				heals[h.Name] += h.N
			}
			d := nodes[i].Digest()
			least := func(name string) func(float64, bool) { // a ratio reads the least over the nodes that probed
				return func(r float64, ok bool) {
					if v := int64(r*1000 + 0.5); ok && (want[name] < 0 || v < want[name]) {
						want[name] = v
					}
				}
			}
			want["pgrid_health_path_len"] += int64(d.Path.Len())
			want["pgrid_health_entries"] += int64(d.Entries)
			want["pgrid_health_buddies"] += int64(d.Buddies)
			least("pgrid_health_liveness_permille")(health.OverallRatio(d.Liveness))
			least("pgrid_health_level_liveness_min_permille")(health.MinLevelRatio(d.Liveness))
			want["pgrid_health_probe_rounds"] += nodes[i].HealthTracker().Rounds()
		}
		for class, n := range faults {
			want[telemetry.Label("pgrid_repair_fault_total", "class", class)] = n
		}
		for action, n := range heals {
			want[telemetry.Label("pgrid_repair_heal_total", "action", action)] = n
		}

		got := stats(tel)
		for name, v := range want {
			if g, ok := got[name]; !ok || g != v {
				t.Errorf("nodes %v: %s = %d (listed %v), owners read %d", group, name, g, ok, v)
			}
		}
		// Only what happened is listed: no fault class or heal action the
		// repairers did not book.
		for name := range got {
			if f, _, _ := strings.Cut(name, "{"); (f == "pgrid_repair_fault_total" || f == "pgrid_repair_heal_total") && want[name] == 0 {
				t.Errorf("nodes %v: %s listed, no repairer booked it", group, name)
			}
		}
		// A total is the sum of its parts.
		for total, family := range map[string]string{
			"pgrid_rpc_client_total":         "pgrid_rpc_client_kind_total",
			"pgrid_rpc_client_errors_total":  "pgrid_rpc_client_kind_errors_total",
			"pgrid_rpc_served_total":         "pgrid_rpc_served_kind_total",
			"pgrid_rpc_served_errors_total":  "pgrid_rpc_served_kind_errors_total",
			"pgrid_rpc_slow_total":           "pgrid_rpc_slow_kind_total",
			"pgrid_rpc_malformed_total":      "pgrid_rpc_malformed_kind_total",
			"pgrid_resilience_calls_total":   "pgrid_resilience_outcome_total",
			"pgrid_resilience_retries_total": "pgrid_resilience_retries_kind_total",
			"pgrid_exchange_total":           "pgrid_exchange_case_total",
			"pgrid_refs_probe_live_total":    "pgrid_refs_level_live_total",
			"pgrid_refs_probe_dead_total":    "pgrid_refs_level_dead_total",
		} {
			var sum int64
			for name, v := range got {
				if f, _, kind := strings.Cut(name, "{"); f == family && kind {
					sum += v
				}
			}
			if got[total] != sum {
				t.Errorf("nodes %v: %s = %d, its parts sum to %d", group, total, got[total], sum)
			}
		}
		if h, _ := tel.MetricsSnapshot().Hist("pgrid_query_hops"); got["pgrid_query_total"] != h.Count {
			t.Errorf("nodes %v: pgrid_query_total = %d, pgrid_query_hops counts %d", group, got["pgrid_query_total"], h.Count)
		}
		for total, part := range map[string]string{
			"pgrid_resilience_breaker_fastfail_total":       telemetry.Label("pgrid_resilience_outcome_total", "class", "fastfail"),
			"pgrid_resilience_retry_budget_exhausted_total": telemetry.Label("pgrid_resilience_outcome_total", "class", "budget-exhausted"),
		} {
			if got[total] != got[part] {
				t.Errorf("nodes %v: %s = %d, %s = %d", group, total, got[total], part, got[part])
			}
		}
		ex, queries, errs := tel.Totals()
		if ex != got["pgrid_exchange_total"] || queries != got["pgrid_query_total"] || errs != got["pgrid_rpc_client_errors_total"] {
			t.Errorf("nodes %v: Totals %d, %d, %d; series %d, %d, %d", group, ex, queries, errs,
				got["pgrid_exchange_total"], got["pgrid_query_total"], got["pgrid_rpc_client_errors_total"])
		}
	}

	// The run did reach what it checks: calls, dials, retries, an open
	// breaker, repair rounds with faults, searches, meetings, probes both
	// ways.
	got := stats(shared)
	for _, name := range []string{"pgrid_rpc_client_total", "pgrid_rpc_served_total", "pgrid_pool_dials_total",
		"pgrid_pool_reuses_total", "pgrid_resilience_breakers_open", "pgrid_repair_rounds_total", "pgrid_repair_messages_total",
		"pgrid_rpc_client_errors_total", "pgrid_resilience_calls_total", "pgrid_resilience_breaker_opens_total",
		"pgrid_resilience_breaker_fastfail_total", "pgrid_resilience_retries_total", "pgrid_query_total",
		"pgrid_exchange_total", "pgrid_refs_probe_live_total", "pgrid_refs_probe_dead_total"} {
		if got[name] == 0 {
			t.Errorf("shared instruments: %s = 0, the run did not exercise it", name)
		}
	}
	if got[`pgrid_rpc_served_kind_total{kind="`+wire.KindInfo.String()+`"}`] == 0 {
		t.Error("no info request served")
	}
}

// TestRepairCountsReadDuringARound: a round holds the repairer's round lock
// across its calls, never the lock its counts sit under — Status, an
// ask=repair observe and a metrics snapshot all return while a round is
// stuck in a call.
func TestRepairCountsReadDuringARound(t *testing.T) {
	c := localHealthCluster(t)
	n1 := c.Nodes[1]
	tel := telemetry.New(1)
	n1.SetTelemetry(tel)
	r := NewRepairer(n1, time.Hour, 1)
	r.Tick() // one booked round before the stuck one

	entered, release := make(chan struct{}), make(chan struct{})
	n1.tr = &blockingTransport{inner: n1.tr, entered: entered, release: release}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Tick()
	}()
	<-entered

	reads := make(chan string, 3)
	go func() {
		if st := r.Status(); st.Rounds != 1 {
			t.Errorf("Status during a round: %d rounds, want 1", st.Rounds)
		}
		reads <- "Status"
	}()
	go func() {
		resp, err := NewClient(c.Transport, 1).Observe(n1.Addr(), wire.ObserveReq{Asks: wire.AskRepair})
		if err != nil || resp.Repair.Rounds != 1 {
			t.Errorf("ask=repair during a round: %+v, %v", resp, err)
		}
		reads <- "observe"
	}()
	go func() {
		if v, _ := tel.MetricsSnapshot().Stat("pgrid_repair_rounds_total"); v != 1 {
			t.Errorf("snapshot during a round: pgrid_repair_rounds_total = %d, want 1", v)
		}
		reads <- "snapshot"
	}()
	for i := 0; i < 3; i++ {
		select {
		case <-reads:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 3 reads returned while the round was stuck in a call", i)
		}
	}
	close(release)
	<-done
	if st := r.Status(); st.Rounds != 2 {
		t.Errorf("after the round: %d rounds, want 2", st.Rounds)
	}
}

// returnedTransport counts the calls that have come back through it, failed
// or not.
type returnedTransport struct {
	inner Transport
	n     atomic.Int64
}

func (r *returnedTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	defer r.n.Add(1)
	return r.inner.Call(to, msg)
}

// blockingTransport holds its first call until released.
type blockingTransport struct {
	inner   Transport
	entered chan struct{}
	release chan struct{}
	once    bool
}

func (b *blockingTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	if !b.once {
		b.once = true
		close(b.entered)
		<-b.release
	}
	return b.inner.Call(to, msg)
}
