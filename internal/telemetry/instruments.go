package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Exchange case codes observed by Instruments.ExchangeCase. Codes 1–4 are
// the paper's Fig. 3 cases; ExCaseReplica is the buddy-forming meeting of
// replicas at maximal depth; ExCaseNone is a meeting where no case fired
// (split gate closed, recursion bound hit, or maxl reached).
const (
	ExCaseNone    = 0
	ExCase1       = 1
	ExCase2       = 2
	ExCase3       = 3
	ExCase4       = 4
	ExCaseReplica = 5
)

// ExchangeCaseName names a case code for labels and events.
func ExchangeCaseName(c int) string {
	switch c {
	case ExCase1:
		return "1"
	case ExCase2:
		return "2"
	case ExCase3:
		return "3"
	case ExCase4:
		return "4"
	case ExCaseReplica:
		return "replica"
	default:
		return "none"
	}
}

// MaxLevels bounds the per-level liveness counters; levels beyond it are
// clamped into the last bucket (paths deeper than 32 bits do not occur at
// the paper's scales).
const MaxLevels = 32

// StatStartEpoch and StatUptime are the incarnation gauges every node
// publishes: the process start time (unix nanoseconds) and the
// monotonic time since it. A changed start epoch is the unambiguous
// counter-reset signal — unlike the "current < previous" heuristic it
// also catches restarts whose counters overshoot the old values.
const (
	StatStartEpoch  = "pgrid_node_start_epoch_ns"
	StatUptime      = "pgrid_node_uptime_ns"
	StatServedTotal = "pgrid_rpc_served_total"
)

// Instruments is the typed metric bundle for one pgrid process — a
// simulator run, a networked node, or an embedding application. All
// methods are nil-safe no-ops, so callers thread a possibly-nil
// *Instruments through hot paths unconditionally.
//
// The event sink is attached with SetSink and may be swapped at runtime;
// emitting is disabled (and free apart from one atomic load) while no sink
// is attached. Callers building expensive attribute maps should guard with
// EventsOn.
type Instruments struct {
	reg   *Registry
	node  int
	clock func() int64
	sink  atomic.Pointer[JSONLSink]
	start time.Time

	exchangeCases [ExCaseReplica + 1]*Counter

	queriesFailed   *Counter
	queryHops       *QHist
	queryBacktracks *Counter

	updateReplicas *Counter
	updateMessages *Counter

	refsByLevel [MaxLevels + 1]atomic.Pointer[levelPair]

	acceptRetries   *Counter
	poolAcquireWait *QHist

	// Hot-path instruments are indexed, not looked up by label: per-kind
	// RPC instruments by wire kind code, probes by level, peer errors by
	// address. Every slot starts empty and is filled
	// on first use through the labeled slow path below, so names, help,
	// registration order and exemplar enabling are those of that path.
	rpcByCode [rpcKindSlots]atomic.Pointer[RPCKind]
	rpcByName cowMap[string, *RPCKind]
	peerErrs  cowMap[int, *[numErrClasses]atomic.Pointer[Counter]]

	// The labeled slow path: first use of a slot, and labels that are
	// dynamic by nature (update strategy).
	// labeledMu also serializes the copy-on-write maps' writers.
	labeledMu sync.RWMutex
	labeled   map[string]*Counter
	families  map[string][]*Counter // labeled counters by family, for the totals summed from them
	labeledQ  map[string]*QHist
	exTailQ   float64 // >0: capture exemplars on latency QHists (guarded by labeledMu)
}

type levelPair struct {
	live *Counter
	dead *Counter
}

// New returns instruments for the given logical node id (-1 for a driver
// that is not a peer) backed by a fresh Registry.
func New(node int) *Instruments {
	t := &Instruments{
		reg:      NewRegistry(),
		node:     node,
		clock:    func() int64 { return time.Now().UnixNano() },
		start:    time.Now(),
		labeled:  make(map[string]*Counter),
		families: make(map[string][]*Counter),
		labeledQ: make(map[string]*QHist),
	}
	r := t.reg
	r.GaugeFunc(StatStartEpoch, "process start time in unix nanoseconds (changes exactly when counters reset)",
		func() int64 { return t.start.UnixNano() })
	r.GaugeFunc(StatUptime, "monotonic nanoseconds since process start",
		func() int64 { return int64(time.Since(t.start)) })
	r.CounterFunc("pgrid_exchange_total", "exchanges executed, including recursive ones (the paper's e)",
		t.familySum("pgrid_exchange_case_total"))
	for c := range t.exchangeCases {
		t.exchangeCases[c] = t.labeledCounter("pgrid_exchange_case_total", "case", ExchangeCaseName(c),
			"exchanges by Fig. 3 case taken")
	}
	r.CounterFunc("pgrid_query_total", "searches completed", func() int64 { return t.queryHops.Count() })
	t.queriesFailed = r.Counter("pgrid_query_failed_total", "searches that found no responsible peer")
	t.queryHops = r.Quantile("pgrid_query_hops", "successful peer contacts per search")
	t.queryBacktracks = r.Counter("pgrid_query_backtracks_total", "failed subtrees abandoned during searches")
	t.updateReplicas = r.Counter("pgrid_update_replicas_total", "replicas reached by update propagations")
	t.updateMessages = r.Counter("pgrid_update_messages_total", "messages spent by update propagations")
	r.CounterFunc("pgrid_refs_probe_live_total", "reference probes that found a live, valid peer", t.familySum("pgrid_refs_level_live_total"))
	r.CounterFunc("pgrid_refs_probe_dead_total", "reference probes that found a dead or invalid peer", t.familySum("pgrid_refs_level_dead_total"))
	r.CounterFunc("pgrid_rpc_client_total", "outbound RPCs issued", t.familySum("pgrid_rpc_client_kind_total"))
	r.CounterFunc("pgrid_rpc_client_errors_total", "outbound RPCs that failed", t.familySum("pgrid_rpc_client_kind_errors_total"))
	r.CounterFunc("pgrid_rpc_malformed_total", "responses whose payload did not match the request kind", t.familySum("pgrid_rpc_malformed_kind_total"))
	r.CounterFunc(StatServedTotal, "inbound RPCs handled", t.familySum("pgrid_rpc_served_kind_total"))
	t.acceptRetries = r.Counter("pgrid_accept_retries_total", "failed accepts the server retried after a backoff (out of file descriptors, say)")
	t.poolAcquireWait = r.Quantile("pgrid_pool_acquire_wait_ns", "time from requesting a pooled connection to holding one, in nanoseconds")
	r.CounterFunc("pgrid_rpc_slow_total", "outbound RPCs slower than the slow-op threshold", t.familySum("pgrid_rpc_slow_kind_total"))
	r.CounterFunc("pgrid_rpc_served_errors_total", "inbound RPCs answered with an error reply", t.familySum("pgrid_rpc_served_kind_errors_total"))
	RegisterRuntimeMetrics(r)
	return t
}

// familySum returns a callback that sums the labeled counters of family:
// a total — RPCs of their kinds, exchanges of their Fig. 3 cases, probes of
// their levels — is read from its parts, never counted a second time.
// (Searches are the count of the hop histogram.)
func (t *Instruments) familySum(family string) func() int64 {
	return func() (n int64) {
		t.labeledMu.RLock()
		defer t.labeledMu.RUnlock()
		for _, c := range t.families[family] {
			n += c.Value()
		}
		return n
	}
}

// Registry returns the backing registry (nil on a nil receiver).
func (t *Instruments) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetClock overrides the event timestamp source (tests). Call before any
// emitter runs; the field is not synchronized.
func (t *Instruments) SetClock(clock func() int64) {
	if t == nil {
		return
	}
	t.clock = clock
}

// SetStart overrides the recorded process start time (tests that need a
// deterministic incarnation epoch). Call before any snapshot is taken;
// the field is not synchronized.
func (t *Instruments) SetStart(at time.Time) {
	if t == nil {
		return
	}
	t.start = at
}

// EnableExemplars switches on tail-bucket exemplar capture for every
// per-kind latency histogram, existing and future: buckets at/above the
// tailQ quantile carry the most recent trace id observed there, linking
// a bad p999 to a concrete trace in the flight recorder. Nil-safe.
func (t *Instruments) EnableExemplars(tailQ float64) {
	if t == nil {
		return
	}
	t.labeledMu.Lock()
	defer t.labeledMu.Unlock()
	t.exTailQ = tailQ
	if tailQ > 0 {
		for _, q := range t.labeledQ {
			q.EnableExemplars(tailQ)
		}
	}
}

// SetSink attaches (or, with nil, detaches) the event sink.
func (t *Instruments) SetSink(s *JSONLSink) {
	if t == nil {
		return
	}
	t.sink.Store(s)
}

// EventsOn reports whether a sink is attached. Emitters building
// non-trivial attribute maps should guard with it.
func (t *Instruments) EventsOn() bool {
	return t.eventSink() != nil
}

// Emit sends an event to the attached sink, stamping schema version,
// timestamp, and node id. No-op without a sink.
func (t *Instruments) Emit(kind string, attrs map[string]any) {
	if s := t.eventSink(); s != nil {
		s.Emit(Event{V: SchemaVersion, TS: t.clock(), Node: t.node, Kind: kind, Attrs: attrs})
	}
}

// EmitExchange emits one KindExchange event without allocating.
func (t *Instruments) EmitExchange(caseName string, lc, depth, a1, a2 int) {
	if s := t.eventSink(); s != nil {
		s.emitExchange(t.clock(), t.node, caseName, lc, depth, a1, a2)
	}
}

// EmitQuery emits one KindQuery event without allocating.
func (t *Instruments) EmitQuery(key string, found bool, hops, backtracks int) {
	if s := t.eventSink(); s != nil {
		s.emitQuery(t.clock(), t.node, key, found, hops, backtracks)
	}
}

// EmitRPC emits one KindRPC event for an outbound RPC of the given wire
// kind to peer, taking us microseconds, without allocating.
func (t *Instruments) EmitRPC(kind string, peer int, us int64) {
	if s := t.eventSink(); s != nil {
		s.emitRPC(t.clock(), t.node, kind, peer, us)
	}
}

func (t *Instruments) eventSink() *JSONLSink {
	if t == nil {
		return nil
	}
	return t.sink.Load()
}

// ExchangeCase records one executed exchange and the Fig. 3 case taken
// (an ExCase* code; out-of-range codes count as ExCaseNone).
func (t *Instruments) ExchangeCase(c int) {
	if t == nil {
		return
	}
	if c < 0 || c >= len(t.exchangeCases) {
		c = ExCaseNone
	}
	t.exchangeCases[c].Inc()
}

// ObserveQuery records one completed search: whether it found a
// responsible peer, the successful contacts spent (hops), and the failed
// subtrees abandoned (backtracks).
func (t *Instruments) ObserveQuery(found bool, hops, backtracks int) {
	if t == nil {
		return
	}
	if !found {
		t.queriesFailed.Inc()
	}
	t.queryHops.Observe(int64(hops))
	t.queryBacktracks.Add(int64(backtracks))
}

// ObserveUpdate records one update propagation under the named strategy
// ("breadth-first", "repeated-dfs", …): rounds by strategy, plus replica
// coverage and message cost.
func (t *Instruments) ObserveUpdate(strategy string, replicas, messages int) {
	if t == nil {
		return
	}
	t.labeledCounter("pgrid_update_rounds_total", "strategy", strategy,
		"update propagations by replica-location strategy").Inc()
	t.updateReplicas.Add(int64(replicas))
	t.updateMessages.Add(int64(messages))
}

// RefLiveness records one reference probe at the given 1-based level.
func (t *Instruments) RefLiveness(level int, live bool) {
	if t == nil {
		return
	}
	if level < 0 {
		level = 0
	}
	if level > MaxLevels {
		level = MaxLevels
	}
	p := t.levelCounters(level)
	if live {
		p.live.Inc()
	} else {
		p.dead.Inc()
	}
}

// ClientRPC, ServedRPC and ServedRPCTraced address a
// message kind by its label, for callers that hold no wire code; callers
// on the per-message path use RPCKind.

// ClientRPC records one outbound RPC of the given kind, its round-trip
// latency, and whether it failed.
func (t *Instruments) ClientRPC(kind string, d time.Duration, err error) {
	t.rpcNamed(kind).Client(d, err)
}

// ServedRPC records one inbound RPC of the given kind.
func (t *Instruments) ServedRPC(kind string) { t.rpcNamed(kind).Served() }

// ServedRPCTraced records the handling duration and outcome of one inbound
// RPC (paired with an earlier ServedRPC) and, for a request carrying a trace
// context, its trace id (0 for none; see RPCKind.ServedDone).
func (t *Instruments) ServedRPCTraced(kind string, d time.Duration, isErr bool, traceID uint64) {
	t.rpcNamed(kind).ServedDone(d, isErr, traceID)
}

// PoolAcquireWait records how long one call waited to hold a pooled
// connection (dial time included on cold paths).
func (t *Instruments) PoolAcquireWait(d time.Duration) {
	if t == nil {
		return
	}
	t.poolAcquireWait.Observe(int64(d))
}

// AcceptRetry records one failed Accept the server retries after a backoff.
func (t *Instruments) AcceptRetry() {
	if t == nil {
		return
	}
	t.acceptRetries.Inc()
}

// Totals returns the headline counters for status lines: exchanges
// executed, queries completed, and outbound RPC errors.
func (t *Instruments) Totals() (exchanges, queries, rpcErrors int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.familySum("pgrid_exchange_case_total")(), t.queryHops.Count(), t.familySum("pgrid_rpc_client_kind_errors_total")()
}

// labeledCounter caches dynamically-labeled counters (update strategies)
// behind a read-locked map hit; it is also the first-use slow path of the
// indexed slots in hotpath.go.
func (t *Instruments) labeledCounter(name, key, value, help string) *Counter {
	return t.cachedCounter(Label(name, key, value), help)
}

// cachedCounter is labeledCounter for a pre-rendered full name (used when
// the name carries more than one label).
func (t *Instruments) cachedCounter(full, help string) *Counter {
	t.labeledMu.RLock()
	c := t.labeled[full]
	t.labeledMu.RUnlock()
	if c != nil {
		return c
	}
	t.labeledMu.Lock()
	defer t.labeledMu.Unlock()
	if c = t.labeled[full]; c == nil {
		c = t.addLabeled(full, help)
	}
	return c
}

// addLabeled registers a labeled counter and files it under its family.
// The caller holds labeledMu.
func (t *Instruments) addLabeled(full, help string) *Counter {
	c := t.reg.Counter(full, help)
	t.labeled[full] = c
	f := familyOf(full)
	t.families[f] = append(t.families[f], c)
	return c
}

// latencyQ caches per-kind quantile histograms the same way.
func (t *Instruments) latencyQ(name, kind, help string) *QHist {
	full := Label(name, "kind", kind)
	t.labeledMu.RLock()
	q := t.labeledQ[full]
	t.labeledMu.RUnlock()
	if q != nil {
		return q
	}
	t.labeledMu.Lock()
	defer t.labeledMu.Unlock()
	if q = t.labeledQ[full]; q == nil {
		q = t.reg.Quantile(full, help)
		if t.exTailQ > 0 {
			q.EnableExemplars(t.exTailQ)
		}
		t.labeledQ[full] = q
	}
	return q
}
