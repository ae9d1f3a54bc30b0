package telemetry

import (
	"sort"
	"strings"
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

	exchanges     *Counter
	exchangeCases [ExCaseReplica + 1]*Counter

	queries         *Counter
	queriesFailed   *Counter
	queryHops       *QHist
	queryBacktracks *Counter

	updateReplicas *Counter
	updateMessages *Counter

	refsLive    *Counter
	refsDead    *Counter
	refsByLevel [MaxLevels + 1]atomic.Pointer[levelPair]

	rpcTotal     *Counter
	rpcErrors    *Counter
	rpcDropped   *Counter
	rpcMalformed *Counter
	served       *Counter

	resCalls            *Counter
	resRetries          *Counter
	resBudgetExhausted  *Counter
	resBreakerOpens     *Counter
	resFastFails        *Counter
	resHedges           *Counter
	resHedgeWins        *Counter
	resBreakersOpen     *Gauge
	resBreakersHalfOpen *Gauge
	resBudgetTokens     *Gauge

	healthPathLen  *Gauge
	healthEntries  *Gauge
	healthBuddies  *Gauge
	healthLiveness *Gauge
	healthMinLevel *Gauge
	healthRounds   *Gauge

	poolOpen        *Gauge
	poolInFlight    *Gauge
	poolQueueDepth  *Gauge
	poolDials       *Counter
	poolReuses      *Counter
	poolEvictions   *Counter
	poolIdleCloses  *Counter
	poolConnLost    *Counter
	poolAcquireWait *QHist

	rpcSlow      *Counter
	servedErrors *Counter

	repairRounds   *Counter
	repairMessages *Counter
	repairUnhealed *Gauge

	// Hot-path instruments are indexed, not looked up by label: per-kind
	// RPC instruments by wire kind code, outcomes by enum, probes by
	// level, peer errors by address. Every slot starts empty and is filled
	// on first use through the labeled slow path below, so names, help,
	// registration order and exemplar enabling are those of that path.
	rpcByCode [rpcKindSlots]atomic.Pointer[RPCKind]
	rpcByName cowMap[string, *RPCKind]
	outcomes  [numOutcomes]atomic.Pointer[Counter]
	peerErrs  cowMap[int, *[numErrClasses]atomic.Pointer[Counter]]

	// The labeled slow path: first use of a slot, and labels that are
	// dynamic by nature (update strategy, repair class).
	// labeledMu also serializes the copy-on-write maps' writers.
	labeledMu sync.RWMutex
	labeled   map[string]*Counter
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
		labeledQ: make(map[string]*QHist),
	}
	r := t.reg
	r.GaugeFunc(StatStartEpoch, "process start time in unix nanoseconds (changes exactly when counters reset)",
		func() int64 { return t.start.UnixNano() })
	r.GaugeFunc(StatUptime, "monotonic nanoseconds since process start",
		func() int64 { return int64(time.Since(t.start)) })
	t.exchanges = r.Counter("pgrid_exchange_total", "exchanges executed, including recursive ones (the paper's e)")
	for c := range t.exchangeCases {
		t.exchangeCases[c] = r.Counter(Label("pgrid_exchange_case_total", "case", ExchangeCaseName(c)),
			"exchanges by Fig. 3 case taken")
	}
	t.queries = r.Counter("pgrid_query_total", "searches completed")
	t.queriesFailed = r.Counter("pgrid_query_failed_total", "searches that found no responsible peer")
	t.queryHops = r.Quantile("pgrid_query_hops", "successful peer contacts per search")
	t.queryBacktracks = r.Counter("pgrid_query_backtracks_total", "failed subtrees abandoned during searches")
	t.updateReplicas = r.Counter("pgrid_update_replicas_total", "replicas reached by update propagations")
	t.updateMessages = r.Counter("pgrid_update_messages_total", "messages spent by update propagations")
	t.refsLive = r.Counter("pgrid_refs_probe_live_total", "reference probes that found a live, valid peer")
	t.refsDead = r.Counter("pgrid_refs_probe_dead_total", "reference probes that found a dead or invalid peer")
	t.rpcTotal = r.Counter("pgrid_rpc_client_total", "outbound RPCs issued")
	t.rpcErrors = r.Counter("pgrid_rpc_client_errors_total", "outbound RPCs that failed")
	t.rpcDropped = r.Counter("pgrid_rpc_dropped_total", "RPCs dropped by failure injection")
	t.rpcMalformed = r.Counter("pgrid_rpc_malformed_total", "responses whose payload did not match the request kind")
	t.resCalls = r.Counter("pgrid_resilience_calls_total", "logical calls entering the resilient transport")
	t.resRetries = r.Counter("pgrid_resilience_retries_total", "retry attempts issued after transient failures")
	t.resBudgetExhausted = r.Counter("pgrid_resilience_retry_budget_exhausted_total", "retries refused because the retry budget was empty")
	t.resBreakerOpens = r.Counter("pgrid_resilience_breaker_opens_total", "circuit-breaker transitions into the open state")
	t.resFastFails = r.Counter("pgrid_resilience_breaker_fastfail_total", "calls refused locally by an open breaker")
	t.resHedges = r.Counter("pgrid_resilience_hedges_total", "majority-read attempts that launched a hedge request")
	t.resHedgeWins = r.Counter("pgrid_resilience_hedge_wins_total", "hedged reads where the hedge answered first")
	t.resBreakersOpen = r.Gauge("pgrid_resilience_breakers_open", "peer circuit breakers currently open")
	t.resBreakersHalfOpen = r.Gauge("pgrid_resilience_breakers_half_open", "peer circuit breakers currently half-open")
	t.resBudgetTokens = r.Gauge("pgrid_resilience_retry_budget_tokens_milli", "retry budget balance in millitokens")
	t.served = r.Counter(StatServedTotal, "inbound RPCs handled")
	t.healthPathLen = r.Gauge("pgrid_health_path_len", "length of this peer's responsibility path")
	t.healthEntries = r.Gauge("pgrid_health_entries", "index entries in this peer's store")
	t.healthBuddies = r.Gauge("pgrid_health_buddies", "known replicas of this peer's path")
	t.healthLiveness = r.Gauge("pgrid_health_liveness_permille", "overall reference liveness ratio in permille (-1 before any probe)")
	t.healthMinLevel = r.Gauge("pgrid_health_level_liveness_min_permille", "worst per-level reference liveness ratio in permille (-1 before any probe)")
	t.healthRounds = r.Gauge("pgrid_health_probe_rounds", "completed background probe rounds")
	t.poolOpen = r.Gauge("pgrid_pool_conns_open", "pooled connections currently open")
	t.poolInFlight = r.Gauge("pgrid_pool_requests_in_flight", "requests currently multiplexed over pooled connections")
	t.poolDials = r.Counter("pgrid_pool_dials_total", "connections dialed by the pool")
	t.poolReuses = r.Counter("pgrid_pool_reuses_total", "calls served over an already-open pooled connection")
	t.poolEvictions = r.Counter("pgrid_pool_evictions_total", "pooled connections evicted (breaker open or explicit)")
	t.poolIdleCloses = r.Counter("pgrid_pool_idle_closes_total", "pooled connections reaped after sitting idle")
	t.poolConnLost = r.Counter("pgrid_pool_conn_lost_total", "pooled connections that died with requests in flight")
	t.poolQueueDepth = r.Gauge("pgrid_pool_queue_depth", "requests currently waiting for or multiplexed on pooled connections, by queue position")
	t.poolAcquireWait = r.Quantile("pgrid_pool_acquire_wait_ns", "time from requesting a pooled connection to holding one, in nanoseconds")
	t.rpcSlow = r.Counter("pgrid_rpc_slow_total", "outbound RPCs slower than the slow-op threshold")
	t.servedErrors = r.Counter("pgrid_rpc_served_errors_total", "inbound RPCs answered with an error reply")
	t.repairRounds = r.Counter("pgrid_repair_rounds_total", "self-healing repair rounds completed")
	t.repairMessages = r.Counter("pgrid_repair_messages_total", "wire messages spent by repair rounds")
	t.repairUnhealed = r.Gauge("pgrid_repair_unhealed", "faults the last repair round detected but could not heal (0 = structurally healthy)")
	RegisterRuntimeMetrics(r)
	return t
}

// Registry returns the backing registry (nil on a nil receiver).
func (t *Instruments) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Node returns the logical node id the instruments were created for.
func (t *Instruments) Node() int {
	if t == nil {
		return -1
	}
	return t.node
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

// Start returns the recorded process start time (zero on nil).
func (t *Instruments) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
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
	t.exchanges.Inc()
	t.exchangeCases[c].Inc()
}

// ObserveQuery records one completed search: whether it found a
// responsible peer, the successful contacts spent (hops), and the failed
// subtrees abandoned (backtracks).
func (t *Instruments) ObserveQuery(found bool, hops, backtracks int) {
	if t == nil {
		return
	}
	t.queries.Inc()
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
		t.refsLive.Inc()
		p.live.Inc()
	} else {
		t.refsDead.Inc()
		p.dead.Inc()
	}
}

// ObserveHealth updates the structural health gauges from one self-digest
// refresh: path length, store size, known replica count, liveness ratios
// (in permille; pass -1 while no probe data exists), and completed probe
// rounds. Gauges hold the most recent refresh, so /metrics shows current
// structure rather than an accumulation.
func (t *Instruments) ObserveHealth(pathLen, entries, buddies int, livenessPermille, minLevelPermille, rounds int64) {
	if t == nil {
		return
	}
	t.healthPathLen.Set(int64(pathLen))
	t.healthEntries.Set(int64(entries))
	t.healthBuddies.Set(int64(buddies))
	t.healthLiveness.Set(livenessPermille)
	t.healthMinLevel.Set(minLevelPermille)
	t.healthRounds.Set(rounds)
}

// ClientRPC, ServedRPC, ServedRPCDone and ServedRPCTraced address a
// message kind by its label, for callers that hold no wire code; callers
// on the per-message path use RPCKind.

// ClientRPC records one outbound RPC of the given kind, its round-trip
// latency, and whether it failed.
func (t *Instruments) ClientRPC(kind string, d time.Duration, err error) {
	t.rpcNamed(kind).Client(d, err)
}

// ServedRPC records one inbound RPC of the given kind.
func (t *Instruments) ServedRPC(kind string) { t.rpcNamed(kind).Served() }

// ServedRPCDone records the handling duration and outcome of one inbound
// RPC (paired with an earlier ServedRPC).
func (t *Instruments) ServedRPCDone(kind string, d time.Duration, isErr bool) {
	t.rpcNamed(kind).ServedDone(d, isErr, 0)
}

// ServedRPCTraced is ServedRPCDone for a request carrying a trace
// context (see RPCKind.ServedDone).
func (t *Instruments) ServedRPCTraced(kind string, d time.Duration, isErr bool, traceID uint64) {
	t.rpcNamed(kind).ServedDone(d, isErr, traceID)
}

// RepairFault records one structural fault detected by the repair
// protocol, labeled by fault class (wrong-side-ref, dead-ref, …).
func (t *Instruments) RepairFault(class string) {
	if t == nil {
		return
	}
	t.labeledCounter("pgrid_repair_fault_total", "class", class, "structural faults detected by the repair protocol, by class").Inc()
}

// RepairHeal records one healing action taken by the repair protocol,
// labeled by action (evict-ref, sync-pull, adopt-path, …).
func (t *Instruments) RepairHeal(action string) {
	if t == nil {
		return
	}
	t.labeledCounter("pgrid_repair_heal_total", "action", action, "healing actions taken by the repair protocol, by action").Inc()
}

// RepairRound records one completed repair round: the wire messages it
// spent and how many detected faults it left unhealed (the gauge an
// operator alerts on — nonzero for many rounds means the peer is stuck).
func (t *Instruments) RepairRound(messages, unhealed int) {
	if t == nil {
		return
	}
	t.repairRounds.Inc()
	t.repairMessages.Add(int64(messages))
	t.repairUnhealed.Set(int64(unhealed))
}

// ResilienceCall records one logical call entering the resilient
// transport (retries excluded — those are counted by ResilienceRetry).
func (t *Instruments) ResilienceCall() {
	if t == nil {
		return
	}
	t.resCalls.Inc()
}

// ResilienceBudgetExhausted records one retry refused for lack of budget.
func (t *Instruments) ResilienceBudgetExhausted() {
	if t == nil {
		return
	}
	t.resBudgetExhausted.Inc()
}

// ResilienceBreakerOpened records one breaker opening.
func (t *Instruments) ResilienceBreakerOpened() {
	if t == nil {
		return
	}
	t.resBreakerOpens.Inc()
}

// ResilienceFastFail records one call refused locally by an open breaker.
func (t *Instruments) ResilienceFastFail() {
	if t == nil {
		return
	}
	t.resFastFails.Inc()
}

// ResilienceBreakerGauges publishes the current number of open and
// half-open breakers.
func (t *Instruments) ResilienceBreakerGauges(open, halfOpen int64) {
	if t == nil {
		return
	}
	t.resBreakersOpen.Set(open)
	t.resBreakersHalfOpen.Set(halfOpen)
}

// ResilienceBudgetTokens publishes the retry budget balance (millitokens).
func (t *Instruments) ResilienceBudgetTokens(milli int64) {
	if t == nil {
		return
	}
	t.resBudgetTokens.Set(milli)
}

// PoolGauges publishes the pool's current open-connection, in-flight, and
// acquire-queue depths.
func (t *Instruments) PoolGauges(open, inFlight, queued int64) {
	if t == nil {
		return
	}
	t.poolOpen.Set(open)
	t.poolInFlight.Set(inFlight)
	t.poolQueueDepth.Set(queued)
}

// PoolAcquireWait records how long one call waited to hold a pooled
// connection (dial time included on cold paths).
func (t *Instruments) PoolAcquireWait(d time.Duration) {
	if t == nil {
		return
	}
	t.poolAcquireWait.Observe(int64(d))
}

// PoolDial records one connection dialed by the pool.
func (t *Instruments) PoolDial() {
	if t == nil {
		return
	}
	t.poolDials.Inc()
}

// PoolReuse records one call served over an already-open pooled connection.
// The reuse ratio — reuses / (reuses + dials) — is how warm the pool runs.
func (t *Instruments) PoolReuse() {
	if t == nil {
		return
	}
	t.poolReuses.Inc()
}

// PoolEviction records pooled connections dropped by an eviction (breaker
// opening, explicit flush).
func (t *Instruments) PoolEviction(n int) {
	if t == nil {
		return
	}
	t.poolEvictions.Add(int64(n))
}

// PoolIdleClose records one pooled connection reaped after sitting idle.
func (t *Instruments) PoolIdleClose() {
	if t == nil {
		return
	}
	t.poolIdleCloses.Inc()
}

// PoolConnLost records one pooled connection that died with requests still
// in flight (those requests fail Transient and may retry elsewhere).
func (t *Instruments) PoolConnLost() {
	if t == nil {
		return
	}
	t.poolConnLost.Inc()
}

// Hedge records one launched hedge request and whether it won the race.
func (t *Instruments) Hedge(won bool) {
	if t == nil {
		return
	}
	t.resHedges.Inc()
	if won {
		t.resHedgeWins.Inc()
	}
}

// Totals returns the headline counters for status lines: exchanges
// executed, queries completed, and outbound RPC errors (including drops).
func (t *Instruments) Totals() (exchanges, queries, rpcErrors int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.exchanges.Value(), t.queries.Value(), t.rpcErrors.Value() + t.rpcDropped.Value()
}

// labeledCounter caches dynamically-labeled counters (update strategies,
// repair classes) behind a read-locked map hit; it is also the first-use
// slow path of the indexed slots in hotpath.go.
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
		c = t.reg.Counter(full, help)
		t.labeled[full] = c
	}
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

// LatencySummary is one row of LatencyReport: the SLO quantiles of one
// latency histogram, in nanoseconds.
type LatencySummary struct {
	Scope string `json:"scope"` // "client", "served", or "pool"
	Kind  string `json:"kind"`  // wire kind name, or the pool stage
	Count int64  `json:"count"`
	P50   int64  `json:"p50_ns"`
	P95   int64  `json:"p95_ns"`
	P99   int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
}

// LatencyReport snapshots every quantile histogram with at least one
// observation: per-kind client and served RPC latency plus the pool
// acquire wait, sorted by scope then kind. Nil-safe.
func (t *Instruments) LatencyReport() []LatencySummary {
	if t == nil {
		return nil
	}
	var out []LatencySummary
	row := func(scope, kind string, q *QHist) {
		n := q.Count()
		if n == 0 {
			return
		}
		qs := q.Quantiles(QuantilePoints...)
		out = append(out, LatencySummary{Scope: scope, Kind: kind, Count: n,
			P50: qs[0], P95: qs[1], P99: qs[2], P999: qs[3]})
	}
	t.labeledMu.RLock()
	for full, q := range t.labeledQ {
		scope := "client"
		if strings.HasPrefix(full, "pgrid_rpc_served_latency_ns") {
			scope = "served"
		}
		row(scope, labelValue(full, "kind"), q)
	}
	t.labeledMu.RUnlock()
	row("pool", "acquire_wait", t.poolAcquireWait)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// labelValue extracts one label's value from a rendered instrument name,
// or "" when absent.
func labelValue(full, key string) string {
	marker := key + `="`
	i := strings.Index(full, marker)
	if i < 0 {
		return ""
	}
	rest := full[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
