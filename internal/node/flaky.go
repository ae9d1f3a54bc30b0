package node

import (
	"fmt"
	"sync/atomic"

	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
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

// FlakyTransport wraps a Transport and drops a fraction of calls — the
// simplest failure-injection harness for the networked protocols. A
// dropped call surfaces as an unreachable peer, exactly like a lost
// datagram or a connection reset, so every protocol must already tolerate
// it: queries backtrack, exchanges abort cleanly, publishes
// under-replicate (and majority reads absorb that). For latency,
// partitions, and corruption, see ChaosTransport.
type FlakyTransport struct {
	inner Transport
	tel   *telemetry.Instruments

	state   atomic.Uint64
	drop    float64
	dropped atomic.Int64
	total   atomic.Int64
}

// NewFlakyTransport wraps inner, dropping each call with probability drop.
func NewFlakyTransport(inner Transport, drop float64, seed int64) *FlakyTransport {
	if drop < 0 || drop >= 1 {
		panic(fmt.Sprintf("node: NewFlakyTransport(drop=%v) out of [0,1)", drop))
	}
	t := &FlakyTransport{inner: inner, drop: drop}
	t.state.Store(uint64(seed))
	return t
}

// Call implements Transport.
func (t *FlakyTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	t.total.Add(1)
	if chaosFloat(chaosRand(&t.state)) < t.drop {
		t.dropped.Add(1)
		rpcKind(t.tel, msg.Kind).Dropped()
		return nil, fmt.Errorf("%w: message to %v lost", ErrOffline, to)
	}
	return t.inner.Call(to, msg)
}

// SetTelemetry attaches instruments that count injected drops by message
// kind (nil disables). Call before the transport is shared.
func (t *FlakyTransport) SetTelemetry(tel *telemetry.Instruments) { t.tel = tel }

// Stats returns dropped and total call counts.
func (t *FlakyTransport) Stats() (dropped, total int64) {
	return t.dropped.Load(), t.total.Load()
}
