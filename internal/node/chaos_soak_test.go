package node

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/resilience"
	"pgrid/internal/telemetry"
)

// TestChaosSoakAvailability is the end-to-end resilience soak: a seeded
// 64-peer community routed through the full production stack — chaos
// injection (20% drop, latency with a tail) under a ResilientTransport
// (retries, budget, per-peer breakers) — with a fifth of the peers taken
// offline. It then checks the three promises this PR makes:
//
//  1. Fidelity: the availability the probers measure through the chaotic
//     stack stays within 10 percentage points of the per-structure Eq. 3
//     prediction from internal/analysis — fault injection plus recovery
//     must not bend the community away from the Section 4 model.
//  2. Boundedness: retries never exceed what the token budget allows
//     (ratio·calls + burst), asserted from the exported telemetry.
//  3. Cleanliness: every goroutine the soak spawns drains; nothing leaks.
func TestChaosSoakAvailability(t *testing.T) {
	before := runtime.NumGoroutine()

	const (
		peers       = 64
		offlineN    = 12
		seed        = 42
		budgetRatio = 0.5
		budgetBurst = 50
	)
	c := NewCluster(peers, smallCfg(), seed)
	rng := rand.New(rand.NewSource(seed))
	buildCluster(t, c, 0.99*4, 50000, rng)

	tel := telemetry.New(0)
	chaos := NewChaosTransport(c.Transport, ChaosConfig{
		Drop:          0.20,
		LatencyBase:   50 * time.Microsecond,
		LatencyJitter: 150 * time.Microsecond,
		TailProb:      0.02,
		TailLatency:   time.Millisecond,
		Seed:          seed,
	})
	budget := resilience.NewBudget(budgetRatio, budgetBurst)
	rt := resilience.Wrap(chaos, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond},
		Budget:   budget,
		Breaker:  resilience.BreakerConfig{Threshold: 8, Cooldown: 250 * time.Millisecond},
		Classify: Classify,
		Seed:     seed,
		Tel:      tel,
	})

	// Route every node's own traffic — probes included — through the
	// resilient chaos stack, then churn a fifth of the community away.
	for _, n := range c.Nodes {
		n.tr = rt
	}
	offline := map[addr.Addr]bool{}
	for len(offline) < offlineN {
		a := addr.Addr(rng.Intn(peers))
		if !offline[a] {
			offline[a] = true
			c.Nodes[a].SetOnline(false)
		}
	}

	// Probe rounds, one goroutine per online node — the liveness data the
	// availability comparison is built from.
	var wg sync.WaitGroup
	for i, n := range c.Nodes {
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
	for _, n := range c.Nodes {
		if !offline[n.Addr()] {
			digests = append(digests, n.Digest())
		}
	}
	rep := analysis.AnalyzeGrid(digests)

	// Queries through the same stack, started from random online peers —
	// the user-visible availability under chaos.
	online := make([]addr.Addr, 0, peers-offlineN)
	for _, n := range c.Nodes {
		if !offline[n.Addr()] {
			online = append(online, n.Addr())
		}
	}
	const queries = 300
	found := 0
	cl := NewClient(rt, seed)
	for i := 0; i < queries; i++ {
		start := online[rng.Intn(len(online))]
		if tr, _ := cl.Route(start, bitpath.Random(rng, 4), false); tr.Found {
			found++
		}
	}
	querySuccess := float64(found) / queries

	calls := counterVal(t, tel, "pgrid_resilience_calls_total")
	retries := counterVal(t, tel, "pgrid_resilience_retries_total")
	opens := counterVal(t, tel, "pgrid_resilience_breaker_opens_total")
	st := chaos.Stats()
	t.Logf("chaos soak: %d peers (%d offline), %d calls (%d dropped, %d delayed), %d retries, %d breaker opens",
		peers, offlineN, st.Total, st.Dropped, st.Delayed, retries, opens)
	t.Logf("availability: p̂=%.3f measured=%.3f predicted=%.3f Eq3(p=%.2f,refmax=%d,k=%d)=%.3f querySuccess=%.3f",
		rep.ProbeLiveness, rep.MeasuredAvailability, rep.PredictedAvailability,
		rep.ProbeLiveness, rep.Eq3RefMax, rep.Eq3Depth, rep.Eq3Availability, querySuccess)

	// 1. Fidelity: Eq. 3 agreement within 10 percentage points.
	if !availabilityAgrees(rep, 0.10) {
		t.Errorf("measured availability %.3f diverges from Eq.3 prediction %.3f by more than 0.10",
			rep.MeasuredAvailability, rep.PredictedAvailability)
	}
	if rep.ProbeLiveness <= 0.5 || rep.ProbeLiveness >= 1 {
		t.Errorf("probe liveness %.3f implausible for %d/%d online with retries", rep.ProbeLiveness, peers-offlineN, peers)
	}

	// 2. Boundedness: the retry budget is a hard ceiling. Every retry
	// withdraws one token; deposits are ratio per call plus the initial
	// burst — so the telemetry must satisfy the token inequality exactly.
	if retries == 0 {
		t.Error("20% drop produced zero retries — the resilience layer is not wired in")
	}
	if max := budgetRatio*float64(calls) + budgetBurst; float64(retries) > max {
		t.Errorf("retries %d exceed budget bound %.0f (ratio %.2f over %d calls + burst %d)",
			retries, max, budgetRatio, calls, budgetBurst)
	}

	// 3. Cleanliness: everything spawned above must drain.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutine leak: %d before soak, %d after settling", before, after)
	}
}
