package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Hot-path instruments — the ones touched once or more per message — are
// indexed by what the caller already holds as a small integer (wire kind
// code, outcome, level, error class) and registered lazily: a slot is an
// atomic pointer, nil until its first observation, filled through the
// labeled slow path (Label + labeledMu + Registry) and read afterwards
// with one atomic load. Nothing is pre-registered, so /metrics lists only
// what happened, in the order it first happened, and a node pays for a
// per-kind QHist (~8 kB, ~16 kB with exemplars) only for kinds it saw.

// rpcKindSlots is how many wire kind codes get an indexed slot. The
// protocol numbers 32 codes, of which 15 are assigned, and only ever
// appends; a code beyond the table (a flipped kind byte) is resolved by
// label like any other name.
const rpcKindSlots = 64

// RPCKind is the instrument set of one message kind: every per-kind
// counter and latency histogram on the RPC path. Obtain one from
// Instruments.RPCKind; all methods are no-ops on a nil receiver.
type RPCKind struct {
	t    *Instruments
	name string

	clientTotal   atomic.Pointer[Counter]
	clientErrors  atomic.Pointer[Counter]
	clientLatency atomic.Pointer[QHist]
	servedTotal   atomic.Pointer[Counter]
	servedErrors  atomic.Pointer[Counter]
	servedLatency atomic.Pointer[QHist]
	servedPanics  atomic.Pointer[Counter]
	slow          atomic.Pointer[Counter]
	malformed     atomic.Pointer[Counter]
	dropped       atomic.Pointer[Counter]
	retries       atomic.Pointer[Counter]
}

// RPCKind returns the instruments of the message kind with the given wire
// code. name is the kind's label (wire.Kind.String()); it is read only the
// first time a code is seen. Nil-safe: nil instruments return a nil set.
func (t *Instruments) RPCKind(code uint8, name string) *RPCKind {
	if t == nil {
		return nil
	}
	if int(code) >= len(t.rpcByCode) {
		return t.rpcNamed(name)
	}
	k := t.rpcByCode[code].Load()
	if k == nil {
		k = t.rpcNamed(name)
		t.rpcByCode[code].Store(k)
	}
	return k
}

// rpcNamed returns the instruments of the message kind with the given
// label, for callers that hold no code (display names in tests and
// tools). One lock-free map read once the name is known.
func (t *Instruments) rpcNamed(name string) *RPCKind {
	if t == nil {
		return nil
	}
	return t.rpcByName.getOrCreate(&t.labeledMu, name, func() *RPCKind {
		return &RPCKind{t: t, name: name}
	})
}

func (k *RPCKind) counter(slot *atomic.Pointer[Counter], family, help string) *Counter {
	c := slot.Load()
	if c == nil {
		c = k.t.labeledCounter(family, "kind", k.name, help)
		slot.Store(c)
	}
	return c
}

func (k *RPCKind) latency(slot *atomic.Pointer[QHist], family, help string) *QHist {
	q := slot.Load()
	if q == nil {
		q = k.t.latencyQ(family, k.name, help)
		slot.Store(q)
	}
	return q
}

// Client records one outbound RPC: its round-trip latency and whether it
// failed.
func (k *RPCKind) Client(d time.Duration, err error) {
	if k == nil {
		return
	}
	t := k.t
	t.rpcTotal.Inc()
	k.counter(&k.clientTotal, "pgrid_rpc_client_kind_total", "outbound RPCs by message kind").Inc()
	k.latency(&k.clientLatency, "pgrid_rpc_kind_latency_ns", "outbound RPC round-trip latency by message kind, in nanoseconds").Observe(int64(d))
	if err != nil {
		t.rpcErrors.Inc()
		k.counter(&k.clientErrors, "pgrid_rpc_client_kind_errors_total", "failed outbound RPCs by message kind").Inc()
	}
}

// Served records one inbound RPC on arrival.
func (k *RPCKind) Served() {
	if k == nil {
		return
	}
	k.t.served.Inc()
	k.counter(&k.servedTotal, "pgrid_rpc_served_kind_total", "inbound RPCs by message kind").Inc()
}

// ServedDone records the handling duration and outcome of one inbound RPC
// (paired with an earlier Served). With exemplar capture enabled and a
// non-zero traceID the landing latency bucket remembers the trace, so tail
// quantiles point at retrievable traces.
func (k *RPCKind) ServedDone(d time.Duration, isErr bool, traceID uint64) {
	if k == nil {
		return
	}
	k.latency(&k.servedLatency, "pgrid_rpc_served_latency_ns", "inbound RPC handling latency by message kind, in nanoseconds").ObserveTraced(int64(d), traceID)
	if isErr {
		k.t.servedErrors.Inc()
		k.counter(&k.servedErrors, "pgrid_rpc_served_kind_errors_total", "inbound RPCs answered with an error reply, by message kind").Inc()
	}
}

// ServedPanic records one inbound RPC whose handler panicked and was
// answered with an error reply by the server's last-resort recover.
func (k *RPCKind) ServedPanic() {
	if k == nil {
		return
	}
	k.counter(&k.servedPanics, "pgrid_rpc_served_panics_total", "inbound RPCs whose handler panicked, by message kind").Inc()
}

// Slow records one outbound RPC that exceeded the slow-op threshold.
func (k *RPCKind) Slow() {
	if k == nil {
		return
	}
	k.t.rpcSlow.Inc()
	k.counter(&k.slow, "pgrid_rpc_slow_kind_total", "slow outbound RPCs by message kind").Inc()
}

// Malformed records one response whose payload did not match this request
// kind — a peer answered, but with garbage. Counted separately from
// offline peers so misbehavior is distinguishable from churn.
func (k *RPCKind) Malformed() {
	if k == nil {
		return
	}
	k.t.rpcMalformed.Inc()
	k.counter(&k.malformed, "pgrid_rpc_malformed_kind_total", "malformed responses by request kind").Inc()
}

// Dropped records one RPC dropped by failure injection
// (node.ChaosTransport).
func (k *RPCKind) Dropped() {
	if k == nil {
		return
	}
	k.t.rpcDropped.Inc()
	k.counter(&k.dropped, "pgrid_rpc_dropped_kind_total", "dropped RPCs by message kind").Inc()
}

// Retry records one retry attempt issued by the resilient transport.
func (k *RPCKind) Retry() {
	if k == nil {
		return
	}
	k.t.resRetries.Inc()
	k.counter(&k.retries, "pgrid_resilience_retries_kind_total", "retries by message kind").Inc()
}

// Outcome is the final outcome class of one resilient call.
type Outcome uint8

// Outcome classes, labeled "ok", "ok-retried", "transient", "terminal",
// "corrupt", "fastfail" and "budget-exhausted".
const (
	OutcomeOK Outcome = iota
	OutcomeOKRetried
	OutcomeTransient
	OutcomeTerminal
	OutcomeCorrupt
	OutcomeFastFail
	OutcomeBudgetExhausted
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "ok-retried", "transient", "terminal",
	"corrupt", "fastfail", "budget-exhausted"}

// ResilienceOutcome records the final outcome class of one resilient call.
func (t *Instruments) ResilienceOutcome(o Outcome) {
	if t == nil || o >= numOutcomes {
		return
	}
	c := t.outcomes[o].Load()
	if c == nil {
		c = t.labeledCounter("pgrid_resilience_outcome_total", "class", outcomeNames[o], "resilient calls by final outcome")
		t.outcomes[o].Store(c)
	}
	c.Inc()
}

// ErrClass is a coarse class of failed outbound RPC, for the per-peer
// error counters.
type ErrClass uint8

// Error classes, labeled "timeout", "corrupt", "refused", "closed",
// "offline" (other transport loss) and "app" (an error reply from a
// healthy peer).
const (
	ErrClassTimeout ErrClass = iota
	ErrClassCorrupt
	ErrClassRefused
	ErrClassClosed
	ErrClassOffline
	ErrClassApp
	numErrClasses
)

var errClassNames = [numErrClasses]string{"timeout", "corrupt", "refused", "closed", "offline", "app"}

// PeerError records one failed outbound RPC against the peer it targeted
// and its error class.
func (t *Instruments) PeerError(peer int, class ErrClass) {
	if t == nil || class >= numErrClasses {
		return
	}
	slots := t.peerErrs.getOrCreate(&t.labeledMu, peer, func() *[numErrClasses]atomic.Pointer[Counter] {
		return new([numErrClasses]atomic.Pointer[Counter])
	})
	c := slots[class].Load()
	if c == nil {
		full := "pgrid_rpc_peer_errors_total{class=" + strconv.Quote(errClassNames[class]) + ",peer=" + strconv.Quote(strconv.Itoa(peer)) + "}"
		c = t.cachedCounter(full, "failed outbound RPCs by peer and error class")
		slots[class].Store(c)
	}
	c.Inc()
}

// levelCounters returns the per-level liveness pair, registering it on the
// level's first probe.
func (t *Instruments) levelCounters(level int) *levelPair {
	if p := t.refsByLevel[level].Load(); p != nil {
		return p
	}
	t.labeledMu.Lock()
	defer t.labeledMu.Unlock()
	p := t.refsByLevel[level].Load()
	if p == nil {
		lvl := strconv.Itoa(level)
		p = &levelPair{
			live: t.reg.Counter(Label("pgrid_refs_level_live_total", "level", lvl),
				"live reference probes by level"),
			dead: t.reg.Counter(Label("pgrid_refs_level_dead_total", "level", lvl),
				"dead reference probes by level"),
		}
		t.refsByLevel[level].Store(p)
	}
	return p
}

// cowMap is a copy-on-write map for keys with no small dense index (kind
// labels, peer addresses): a hit is one atomic load and a map read; a miss
// creates the value and publishes a copy of the map under the writers'
// lock. Right for maps that stop growing early.
type cowMap[K comparable, V any] struct {
	p atomic.Pointer[map[K]V]
}

func (c *cowMap[K, V]) getOrCreate(writers sync.Locker, k K, create func() V) V {
	var old map[K]V
	if m := c.p.Load(); m != nil {
		old = *m
	}
	if v, ok := old[k]; ok {
		return v
	}
	writers.Lock()
	defer writers.Unlock()
	if m := c.p.Load(); m != nil {
		old = *m
	}
	if v, ok := old[k]; ok {
		return v
	}
	next := make(map[K]V, len(old)+1)
	for ok, ov := range old {
		next[ok] = ov
	}
	v := create()
	next[k] = v
	c.p.Store(&next)
	return v
}
