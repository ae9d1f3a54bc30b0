package resilience

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// Transport is the call surface this package wraps. It is structurally
// identical to node.Transport, so a *ResilientTransport wraps and
// satisfies it without this package importing internal/node.
type Transport interface {
	Call(to addr.Addr, msg *wire.Message) (*wire.Message, error)
}

// Options configures a ResilientTransport. The zero value means: default
// retry policy, no budget (unlimited retries), breakers disabled, ClassOf
// classification, real sleeping.
type Options struct {
	// Retry bounds the per-call retry loop.
	Retry Policy
	// Budget, when non-nil, globally bounds retries to a fraction of the
	// call volume.
	Budget *Budget
	// Breaker parameterizes the per-peer breakers; Threshold 0 disables
	// them.
	Breaker BreakerConfig
	// Classify sorts call errors into classes (nil means ClassOf). Only
	// Transient outcomes are retried.
	Classify func(error) Class
	// Seed derives the deterministic jitter stream.
	Seed int64
	// Tel, when non-nil, lists the pgrid_resilience_* series on its
	// registry. Every one reads a count the transport, its breakers or its
	// budget keep.
	Tel *telemetry.Instruments

	// OnPeerState, when non-nil, is notified of every breaker state
	// transition with the peer it belongs to — the hook a pooling
	// transport uses to evict a peer's connections when its breaker
	// opens. Called under that peer's breaker lock: keep it fast and do
	// not call back into this transport.
	OnPeerState func(peer addr.Addr, from, to BreakerState)

	// Sleep overrides backoff sleeping in tests (nil means time.Sleep).
	Sleep func(time.Duration)
}

// ResilientTransport composes retries, a retry budget, and per-peer
// circuit breakers around an inner Transport. Safe for concurrent use.
type ResilientTransport struct {
	inner    Transport
	opt      Options
	classify func(error) Class
	sleep    func(time.Duration)
	seq      atomic.Uint64
	reg      *telemetry.Registry

	mu       sync.RWMutex
	breakers map[addr.Addr]*Breaker

	// Calls that have returned, by final outcome, and retries, by wire
	// kind code: the only counts of either.
	outcomes [numOutcomes]atomic.Int64
	retries  [math.MaxUint8 + 1]atomic.Int64
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

// Wrap builds a ResilientTransport over inner.
func Wrap(inner Transport, opt Options) *ResilientTransport {
	opt.Retry = opt.Retry.withDefaults()
	reg := opt.Tel.Registry()
	t := &ResilientTransport{
		inner:    inner,
		opt:      opt,
		classify: opt.Classify,
		sleep:    opt.Sleep,
		reg:      reg,
		breakers: make(map[addr.Addr]*Breaker),
	}
	if t.classify == nil {
		t.classify = ClassOf
	}
	if t.sleep == nil {
		t.sleep = time.Sleep
	}
	t.seq.Store(uint64(opt.Seed))
	reg.CounterFunc("pgrid_resilience_calls_total", "resilient calls that have returned, the sum of their outcomes",
		func() (n int64) {
			for o := range t.outcomes {
				n += t.outcomes[o].Load()
			}
			return n
		})
	reg.CounterFunc("pgrid_resilience_retry_budget_exhausted_total", "retries refused because the retry budget was empty",
		t.outcomes[OutcomeBudgetExhausted].Load)
	reg.CounterFunc("pgrid_resilience_breaker_opens_total", "circuit-breaker transitions into the open state",
		func() int64 { _, n := t.breakerTally(); return n })
	reg.CounterFunc("pgrid_resilience_breaker_fastfail_total", "calls refused locally by an open breaker",
		t.outcomes[OutcomeFastFail].Load)
	reg.CounterFunc("pgrid_resilience_retries_total", "retry attempts issued after transient failures", t.Retries)
	reg.GaugeFunc("pgrid_resilience_breakers_open", "peer circuit breakers currently open",
		func() int64 { s, _ := t.breakerTally(); return s[StateOpen] })
	reg.GaugeFunc("pgrid_resilience_breakers_half_open", "peer circuit breakers currently half-open",
		func() int64 { s, _ := t.breakerTally(); return s[StateHalfOpen] })
	reg.GaugeFunc("pgrid_resilience_retry_budget_tokens_milli", "retry budget balance in millitokens",
		func() int64 { return int64(math.Round(opt.Budget.Tokens() * 1000)) })
	return t
}

// breaker returns (creating on first contact) the breaker for a peer, or
// nil when breakers are disabled.
func (t *ResilientTransport) breaker(to addr.Addr) *Breaker {
	if t.opt.Breaker.Threshold <= 0 {
		return nil
	}
	t.mu.RLock()
	b := t.breakers[to]
	t.mu.RUnlock()
	if b != nil {
		return b
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if b = t.breakers[to]; b == nil {
		b = NewBreaker(t.opt.Breaker)
		b.refused = Mark(fmt.Errorf("%w: peer %v", ErrBreakerOpen, to), Transient)
		if onPeer := t.opt.OnPeerState; onPeer != nil {
			peer := to
			b.onTransition = func(from, next BreakerState) { onPeer(peer, from, next) }
		}
		t.breakers[to] = b
	}
	return b
}

// breakerTally scans the breakers' own state: how many are in each state
// now, and how many times any of them opened.
func (t *ResilientTransport) breakerTally() (inState [StateHalfOpen + 1]int64, opens int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.breakers {
		s, _, n, _ := b.Snapshot()
		inState[s]++
		opens += n
	}
	return inState, opens
}

// count books one returned call under its final outcome. A class is listed
// on the registry when its count first leaves zero, so /metrics shows only
// what happened.
func (t *ResilientTransport) count(o Outcome) {
	if t.outcomes[o].Add(1) == 1 {
		t.reg.CounterFunc(telemetry.Label("pgrid_resilience_outcome_total", "class", outcomeNames[o]),
			"resilient calls by final outcome", t.outcomes[o].Load)
	}
}

// retried books one retry of a call of kind k, listing the kind on its
// first retry.
func (t *ResilientTransport) retried(k wire.Kind) {
	if t.retries[k].Add(1) == 1 {
		t.reg.CounterFunc(telemetry.Label("pgrid_resilience_retries_kind_total", "kind", k.String()),
			"retries by message kind", t.retries[k].Load)
	}
}

// Call implements Transport: attempt the inner call, classify failures,
// and retry transient ones under the policy, the budget, and the target's
// breaker. Terminal and Corrupt failures return immediately — the caller
// (routing) backtracks to an alternative peer instead of burning retries.
func (t *ResilientTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	t.opt.Budget.Deposit()
	br := t.breaker(to)
	for attempt := 1; ; attempt++ {
		if br != nil && !br.Allow() {
			t.count(OutcomeFastFail)
			return nil, br.refused
		}
		resp, err := t.inner.Call(to, msg)
		if err == nil {
			if br != nil {
				br.Success()
			}
			if attempt == 1 {
				t.count(OutcomeOK)
			} else {
				t.count(OutcomeOKRetried)
			}
			return resp, nil
		}
		class := t.classify(err)
		switch class {
		case Terminal:
			// The peer answered; it is alive — an application error must
			// not push its breaker toward open.
			if br != nil {
				br.Success()
			}
			t.count(OutcomeTerminal)
			return nil, err
		case Corrupt:
			if br != nil {
				br.Failure()
			}
			t.count(OutcomeCorrupt)
			return nil, err
		}
		// Transient: count against the breaker, retry if allowed.
		if br != nil {
			br.Failure()
		}
		if attempt >= t.opt.Retry.MaxAttempts {
			t.count(OutcomeTransient)
			return nil, err
		}
		if !t.opt.Budget.Withdraw() {
			t.count(OutcomeBudgetExhausted)
			return nil, err
		}
		t.retried(msg.Kind)
		t.sleep(t.opt.Retry.Backoff(attempt, trace.Mix64(t.seq.Add(0x9e3779b97f4a7c15))))
	}
}

// Retries returns the lifetime number of retries issued, the sum over
// kinds.
func (t *ResilientTransport) Retries() (n int64) {
	for k := range t.retries {
		n += t.retries[k].Load()
	}
	return n
}

// BreakerView is one peer's breaker state for the /debug/breakers admin
// surface.
type BreakerView struct {
	Peer  addr.Addr `json:"peer"`
	State string    `json:"state"`
	Fails int       `json:"consecutive_fails"`
	Opens int64     `json:"opens"`
	// Until is when the next probe is allowed (zero unless open).
	Until time.Time `json:"retry_at"`
}

// Breakers snapshots every peer breaker, sorted by peer address.
func (t *ResilientTransport) Breakers() []BreakerView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]BreakerView, 0, len(t.breakers))
	for a, b := range t.breakers {
		state, fails, opens, until := b.Snapshot()
		v := BreakerView{Peer: a, State: state.String(), Fails: fails, Opens: opens}
		if state == StateOpen {
			v.Until = until
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
