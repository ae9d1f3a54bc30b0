package node

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// chaosRand advances a shared splitmix64 state by one golden-ratio step
// and mixes it — a lock-free per-call random draw (the per-worker RNG
// pattern from the concurrent construction engine). Unlike a mutex-guarded
// rand.Rand, concurrent callers never serialize on it, so fault injection
// cannot mask the contention bugs it is meant to expose.
func chaosRand(state *atomic.Uint64) uint64 {
	return trace.Mix64(state.Add(0x9e3779b97f4a7c15))
}

// chaosFloat maps a draw onto [0, 1).
func chaosFloat(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}

// ChaosConfig parameterizes a ChaosTransport. All probabilities are per
// call in [0, 1); zero values disable the corresponding fault.
type ChaosConfig struct {
	// Drop is the probability a call is lost outright (surfaces as
	// ErrOffline, like a lost datagram).
	Drop float64
	// LatencyBase and LatencyJitter delay every delivered call by
	// Base + uniform[0, Jitter) — the steady-state network latency.
	LatencyBase   time.Duration
	LatencyJitter time.Duration
	// TailProb adds TailLatency on top with this probability — the
	// long-tail stragglers every protocol must tolerate without failing.
	TailProb    float64
	TailLatency time.Duration
	// Corrupt is the probability a delivered response is mangled: an
	// undecodable frame (wire.ErrCorrupt), a response with its payload
	// stripped, or a response of the wrong kind — one of the three,
	// chosen per fault.
	Corrupt float64
	// Seed makes the fault sequence reproducible.
	Seed int64
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Total     int64 // calls seen
	Dropped   int64 // lost outright
	Blocked   int64 // refused by a partition edge
	Corrupted int64 // responses mangled
	Delayed   int64 // calls that slept
}

// ChaosTransport wraps a Transport with seeded adversarial faults: drops,
// latency injection (with a configurable tail), asymmetric partitions,
// response corruption, and per-peer slow modes. It is the full chaos
// harness behind the resilience soak tests — every protocol above it must
// keep its guarantees while the transport misbehaves in every way short
// of Byzantine forgery. The fault stream is lock-free (splitmix64 steps on
// one atomic state), so injection does not serialize concurrent callers.
type ChaosTransport struct {
	inner Transport
	cfg   ChaosConfig
	state atomic.Uint64
	sleep func(time.Duration)

	mu      sync.RWMutex
	blocked map[[2]addr.Addr]bool       // from→to edges refused (asymmetric)
	slow    map[addr.Addr]time.Duration // extra latency per target peer

	total, dropped, blockedN, corrupted, delayed atomic.Int64
}

// NewChaosTransport wraps inner with the configured fault injection.
func NewChaosTransport(inner Transport, cfg ChaosConfig) *ChaosTransport {
	for _, p := range []float64{cfg.Drop, cfg.TailProb, cfg.Corrupt} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("node: NewChaosTransport probability %v out of [0,1)", p))
		}
	}
	t := &ChaosTransport{
		inner:   inner,
		cfg:     cfg,
		sleep:   time.Sleep,
		blocked: make(map[[2]addr.Addr]bool),
		slow:    make(map[addr.Addr]time.Duration),
	}
	t.state.Store(uint64(cfg.Seed))
	return t
}

// Block refuses calls on the directed edge from→to (msg.From → target).
// Blocking one direction only is how asymmetric partitions — A can reach
// B but not vice versa — are built. Client calls carry from = addr.Nil.
func (t *ChaosTransport) Block(from, to addr.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blocked[[2]addr.Addr{from, to}] = true
}

// Unblock heals one directed edge.
func (t *ChaosTransport) Unblock(from, to addr.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.blocked, [2]addr.Addr{from, to})
}

// Partition blocks both directions between every pair across the two
// groups — the symmetric split, built from the asymmetric primitive.
func (t *ChaosTransport) Partition(a, b []addr.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			t.blocked[[2]addr.Addr{x, y}] = true
			t.blocked[[2]addr.Addr{y, x}] = true
		}
	}
}

// Heal removes every partition edge.
func (t *ChaosTransport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blocked = make(map[[2]addr.Addr]bool)
}

// SetSlow adds extra latency to every call targeting the peer (0 clears
// it) — the degraded-but-alive peer that breaks tail latency without ever
// failing a health check.
func (t *ChaosTransport) SetSlow(to addr.Addr, extra time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if extra <= 0 {
		delete(t.slow, to)
		return
	}
	t.slow[to] = extra
}

// Stats returns the fault tallies.
func (t *ChaosTransport) Stats() ChaosStats {
	return ChaosStats{
		Total:     t.total.Load(),
		Dropped:   t.dropped.Load(),
		Blocked:   t.blockedN.Load(),
		Corrupted: t.corrupted.Load(),
		Delayed:   t.delayed.Load(),
	}
}

// Call implements Transport.
func (t *ChaosTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	t.total.Add(1)

	t.mu.RLock()
	blocked := t.blocked[[2]addr.Addr{msg.From, to}]
	extra := t.slow[to]
	t.mu.RUnlock()
	if blocked {
		t.blockedN.Add(1)
		return nil, fmt.Errorf("%w: %v → %v partitioned", ErrOffline, msg.From, to)
	}

	if d := t.delay(extra); d > 0 {
		t.delayed.Add(1)
		t.sleep(d)
	}

	if t.cfg.Drop > 0 && chaosFloat(chaosRand(&t.state)) < t.cfg.Drop {
		t.dropped.Add(1)
		return nil, fmt.Errorf("%w: message to %v lost", ErrOffline, to)
	}

	resp, err := t.inner.Call(to, msg)
	if err != nil {
		return nil, err
	}

	if t.cfg.Corrupt > 0 && chaosFloat(chaosRand(&t.state)) < t.cfg.Corrupt {
		t.corrupted.Add(1)
		return t.mangle(to, resp)
	}
	return resp, nil
}

// delay computes this call's injected latency.
func (t *ChaosTransport) delay(extra time.Duration) time.Duration {
	d := t.cfg.LatencyBase + extra
	if t.cfg.LatencyJitter > 0 {
		d += time.Duration(chaosFloat(chaosRand(&t.state)) * float64(t.cfg.LatencyJitter))
	}
	if t.cfg.TailProb > 0 && chaosFloat(chaosRand(&t.state)) < t.cfg.TailProb {
		d += t.cfg.TailLatency
	}
	return d
}

// mangle corrupts a response one of three ways: an undecodable frame (the
// TCP transport would surface wire.ErrCorrupt), a response stripped of its
// payload, or a response of the wrong kind. The original message is never
// mutated — other transports may share it.
func (t *ChaosTransport) mangle(to addr.Addr, resp *wire.Message) (*wire.Message, error) {
	switch chaosRand(&t.state) % 3 {
	case 0:
		return nil, fmt.Errorf("%w: injected garbage from %v", wire.ErrCorrupt, to)
	case 1:
		// Right kind, no payload: the nil-sub-struct shape.
		return &wire.Message{Kind: resp.Kind, From: resp.From}, nil
	default:
		// Wrong kind entirely, payload gone with it.
		kind := wire.KindObserveResp
		if resp.Kind == wire.KindObserveResp {
			kind = wire.KindInfoResp
		}
		return &wire.Message{Kind: kind, From: resp.From}, nil
	}
}

// availabilityAgrees reports whether a chaos run's measured availability
// stays within tol of the structural Eq. 3 prediction. It fails when no
// probe data exists.
func availabilityAgrees(r analysis.GridReport, tol float64) bool {
	if r.MeasuredAvailability < 0 || r.PredictedAvailability < 0 {
		return false
	}
	return math.Abs(r.MeasuredAvailability-r.PredictedAvailability) <= tol
}
