package node

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/health"
	"pgrid/internal/resilience"
	"pgrid/internal/sim"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// connKillingChaos injects drops the way a real network fails a pooled
// transport: a dropped call kills the connection it would have travelled
// on — mid-stream, under whatever other requests are multiplexed on it —
// and reports Transient. Unlike the in-process ChaosTransport, the
// damage here outlives the dropped call: the next caller must re-dial and
// every in-flight request on the killed connection fails too. One per
// transport; the tally is the run's.
type connKillingChaos struct {
	pt   *PoolTransport
	drop float64

	mu  sync.Mutex
	rng *rand.Rand

	*chaosTally
}

type chaosTally struct {
	total, dropped atomic.Int64
	killed         atomic.Int64 // warm connections closed by drops
	midStream      atomic.Int64 // of those, the ones carrying other requests
}

func (c *connKillingChaos) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	c.total.Add(1)
	c.mu.Lock()
	hit := c.rng.Float64() < c.drop
	c.mu.Unlock()
	if hit {
		c.dropped.Add(1)
		c.kill(to)
		return nil, fmt.Errorf("%w: chaos killed the connection to %v", ErrOffline, to)
	}
	return c.pt.Call(to, m)
}

// kill closes the connection the pool hands the dropped call: the peer's
// stream, idle or carrying other requests — which it takes along — or a fresh
// dial when the pool wants one. One lost request costs one connection, as on a
// real network; under the pool's one-stream-until-saturated rule that
// connection is the one every caller of this transport shares to the peer.
func (c *connKillingChaos) kill(to addr.Addr) {
	mc, warm, err := c.pt.pool(to).acquire(c.pt, to)
	if err != nil {
		return
	}
	busy := mc.inflight.Load() > 0
	mc.close()
	if warm {
		c.killed.Add(1)
		if busy {
			c.midStream.Add(1)
		}
	}
}

// TestChaosSoakPooledTCP is the PR-5 resilience soak rebuilt on the wire:
// a 64-peer community served over real TCP, every node's traffic multiplexed
// through its own pooled transport under its own resilient wrapper — the stack
// cmd/pgridnode runs, one per process — whose breaker-open transitions evict
// pooled connections. Chaos drops kill a connection, not the process —
// in-flight requests on the killed socket fail Transient and retry — and a
// fifth of the peers go offline. The promises checked are the same as the
// in-process soak:
//
//  1. Fidelity: measured availability stays within 10 percentage points
//     of the Eq. 3 prediction — the pooled wire must not bend the
//     community away from the Section 4 model.
//  2. Boundedness: retries respect the token budget.
//  3. Cleanliness: every goroutine — servers and their connection readers,
//     probers, the pool janitors — drains; nothing leaks.
func TestChaosSoakPooledTCP(t *testing.T) {
	before := runtime.NumGoroutine()

	const (
		peers       = 64
		offlineN    = 12
		seed        = 42
		budgetRatio = 0.5
		budgetBurst = 50
	)
	cfg := core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
	built, err := sim.Build(sim.Options{N: peers, Config: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !built.Converged {
		t.Fatal("construction did not converge")
	}

	listeners := make(map[addr.Addr]net.Listener, peers)
	for _, p := range built.Dir.All() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[p.Addr()] = ln
	}

	// One stack per process: a pool, the chaos under it, retries and breakers
	// over it. The retry budget and the instruments are the run's.
	tel := telemetry.New(0)
	budget := resilience.NewBudget(budgetRatio, budgetBurst)
	tally := &chaosTally{}
	var pools []*PoolTransport
	stack := func(who addr.Addr) *resilience.ResilientTransport {
		pt := NewPoolTransport(PoolConfig{DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
		pt.SetTelemetry(tel)
		for a, ln := range listeners {
			pt.SetEndpoint(a, ln.Addr().String())
		}
		pools = append(pools, pt)
		chaos := &connKillingChaos{pt: pt, drop: 0.15, rng: rand.New(rand.NewSource(seed + int64(who))), chaosTally: tally}
		return resilience.Wrap(chaos, resilience.Options{
			Retry:    resilience.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond},
			Budget:   budget,
			Breaker:  resilience.BreakerConfig{Threshold: 8, Cooldown: 250 * time.Millisecond},
			Classify: Classify,
			Seed:     seed + int64(who),
			Tel:      tel,
			OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
				if to == resilience.StateOpen {
					pt.Evict(peer)
				}
			},
		})
	}

	// Transplant the converged grid into TCP-served nodes whose own
	// outbound traffic — probes, routed queries, everything — goes through
	// their resilient pooled stack.
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*Node, 0, peers)
	servers := make([]*Server, 0, peers)
	ctx, cancel := context.WithCancel(context.Background())
	for _, p := range built.Dir.All() {
		n := New(p.Addr(), cfg, stack(p.Addr()), int64(p.Addr()))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(n, listeners[p.Addr()])
		go srv.Serve(ctx)
		nodes = append(nodes, n)
		servers = append(servers, srv)
	}
	rt := stack(addr.Nil) // the querying client's
	stop := func() {
		cancel()
		for _, s := range servers {
			s.Close()
		}
		for _, pt := range pools {
			pt.Close()
		}
	}
	defer stop()

	offline := map[addr.Addr]bool{}
	for len(offline) < offlineN {
		a := nodes[rng.Intn(peers)].Addr()
		if !offline[a] {
			offline[a] = true
			// The listener stays up; the server drops frames unanswered —
			// a dead peer, not a dead port.
			for _, n := range nodes {
				if n.Addr() == a {
					n.SetOnline(false)
				}
			}
		}
	}

	// Probe rounds over the pooled wire, one goroutine per online node.
	var wg sync.WaitGroup
	for i, n := range nodes {
		if offline[n.Addr()] {
			continue
		}
		p := NewProber(n, 8, int64(1000+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				p.Tick()
			}
		}()
	}
	wg.Wait()

	var digests []health.Digest
	for _, n := range nodes {
		if !offline[n.Addr()] {
			digests = append(digests, n.Digest())
		}
	}
	rep := analysis.AnalyzeGrid(digests)

	online := make([]addr.Addr, 0, peers-offlineN)
	for _, n := range nodes {
		if !offline[n.Addr()] {
			online = append(online, n.Addr())
		}
	}
	// Queries from concurrent clients of one process: their calls to a start
	// peer share its stream, as the hops a busy node forwards to one reference
	// do, so this is where a kill lands on a stream that carries other requests.
	const (
		queries = 320
		clients = 16
	)
	var found atomic.Int64
	for w := 0; w < clients; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries/clients; i++ {
				start := online[rng.Intn(len(online))]
				key := bitpath.Random(rng, 4)
				resp, err := rt.Call(start, &wire.Message{Kind: wire.KindQuery, From: addr.Nil,
					Query: &wire.QueryReq{Key: key}})
				if err == nil && resp.QueryResp != nil && resp.QueryResp.Found {
					found.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	querySuccess := float64(found.Load()) / queries

	calls := counterVal(t, tel, "pgrid_resilience_calls_total")
	retries := counterVal(t, tel, "pgrid_resilience_retries_total")
	opens := counterVal(t, tel, "pgrid_resilience_breaker_opens_total")
	var st PoolStats
	for _, pt := range pools {
		s := pt.Stats()
		st.Dials += s.Dials
		st.Reuses += s.Reuses
		st.Evictions += s.Evictions
		st.ConnLost += s.ConnLost
		st.Open += s.Open
	}
	t.Logf("pooled soak: %d peers (%d offline), %d calls (%d dropped, killing %d warm connections, %d of them mid-stream), %d retries, %d breaker opens",
		peers, offlineN, tally.total.Load(), tally.dropped.Load(), tally.killed.Load(), tally.midStream.Load(), retries, opens)
	t.Logf("pool: %d dials, %d reuses, %d evictions, %d conns lost mid-flight, %d open at end",
		st.Dials, st.Reuses, st.Evictions, st.ConnLost, st.Open)
	t.Logf("availability: p̂=%.3f measured=%.3f predicted=%.3f querySuccess=%.3f",
		rep.ProbeLiveness, rep.MeasuredAvailability, rep.PredictedAvailability, querySuccess)

	// 1. Fidelity under connection-killing chaos.
	if !availabilityAgrees(rep, 0.10) {
		t.Errorf("measured availability %.3f diverges from Eq.3 prediction %.3f by more than 0.10",
			rep.MeasuredAvailability, rep.PredictedAvailability)
	}
	if rep.ProbeLiveness <= 0.5 || rep.ProbeLiveness >= 1 {
		t.Errorf("probe liveness %.3f implausible for %d/%d online with retries", rep.ProbeLiveness, peers-offlineN, peers)
	}

	// Queries are where calls share streams, so where a killed stream's
	// fate-sharing would show: with retries, at most one in ten may be lost
	// (0.95–0.98 measured, the same with two streams per pair).
	if querySuccess < 0.90 {
		t.Errorf("query success %.3f under concurrent clients, want at least 0.90", querySuccess)
	}

	// 2. Boundedness: the retry budget holds on the pooled wire too.
	if retries == 0 {
		t.Error("15% connection-killing chaos produced zero retries — the resilience layer is not wired in")
	}
	if max := budgetRatio*float64(calls) + budgetBurst; float64(retries) > max {
		t.Errorf("retries %d exceed budget bound %.0f (ratio %.2f over %d calls + burst %d)",
			retries, max, budgetRatio, calls, budgetBurst)
	}

	// The drops must actually have exercised the pool's failure paths:
	// connections were reused, killed, and re-dialed — not one socket per
	// call, not one immortal socket.
	if st.Reuses == 0 {
		t.Error("soak never reused a pooled connection")
	}
	if tally.killed.Load() == 0 {
		t.Error("chaos never killed a warm connection — drops did not kill connections")
	}
	if st.ConnLost == 0 {
		t.Error("no connection was lost with requests in flight")
	}
	if tally.midStream.Load() == 0 {
		t.Error("no drop closed a stream that carried other requests — kills never landed mid-stream")
	}
	if st.Dials < 2 {
		t.Errorf("dials = %d; killed connections should force re-dials", st.Dials)
	}

	// 3. Cleanliness: servers, their connection readers, janitor, probers
	// all drain.
	stop()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutine leak: %d before soak, %d after settling", before, after)
	}
}
