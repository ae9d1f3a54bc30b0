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
	// Tel, when non-nil, receives the pgrid_resilience_* metrics; the
	// breaker, budget and retry counts are read from the transport.
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

	mu       sync.RWMutex
	breakers map[addr.Addr]*Breaker

	open     atomic.Int64 // breakers currently open
	halfOpen atomic.Int64 // breakers currently half-open
	retries  atomic.Int64
}

// Wrap builds a ResilientTransport over inner.
func Wrap(inner Transport, opt Options) *ResilientTransport {
	opt.Retry = opt.Retry.withDefaults()
	t := &ResilientTransport{
		inner:    inner,
		opt:      opt,
		classify: opt.Classify,
		sleep:    opt.Sleep,
		breakers: make(map[addr.Addr]*Breaker),
	}
	if t.classify == nil {
		t.classify = ClassOf
	}
	if t.sleep == nil {
		t.sleep = time.Sleep
	}
	t.seq.Store(uint64(opt.Seed))
	reg := opt.Tel.Registry()
	reg.CounterFunc("pgrid_resilience_retries_total", "retry attempts issued after transient failures", t.retries.Load)
	reg.GaugeFunc("pgrid_resilience_breakers_open", "peer circuit breakers currently open", t.open.Load)
	reg.GaugeFunc("pgrid_resilience_breakers_half_open", "peer circuit breakers currently half-open", t.halfOpen.Load)
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
		peer := to
		b.onTransition = func(from, next BreakerState) {
			t.observeTransition(from, next)
			if t.opt.OnPeerState != nil {
				t.opt.OnPeerState(peer, from, next)
			}
		}
		t.breakers[to] = b
	}
	return b
}

// observeTransition maintains the open/half-open counts and the opens
// counter. Runs under the breaker's lock: O(1) only.
func (t *ResilientTransport) observeTransition(from, to BreakerState) {
	delta := func(s BreakerState, d int64) {
		switch s {
		case StateOpen:
			t.open.Add(d)
		case StateHalfOpen:
			t.halfOpen.Add(d)
		}
	}
	delta(from, -1)
	delta(to, +1)
	if to == StateOpen {
		t.opt.Tel.ResilienceBreakerOpened()
	}
}

// Call implements Transport: attempt the inner call, classify failures,
// and retry transient ones under the policy, the budget, and the target's
// breaker. Terminal and Corrupt failures return immediately — the caller
// (routing) backtracks to an alternative peer instead of burning retries.
func (t *ResilientTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	tel := t.opt.Tel
	tel.ResilienceCall()
	t.opt.Budget.Deposit()
	br := t.breaker(to)
	for attempt := 1; ; attempt++ {
		if br != nil && !br.Allow() {
			tel.ResilienceFastFail()
			tel.ResilienceOutcome(telemetry.OutcomeFastFail)
			return nil, br.refused
		}
		resp, err := t.inner.Call(to, msg)
		if err == nil {
			if br != nil {
				br.Success()
			}
			if attempt == 1 {
				tel.ResilienceOutcome(telemetry.OutcomeOK)
			} else {
				tel.ResilienceOutcome(telemetry.OutcomeOKRetried)
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
			tel.ResilienceOutcome(telemetry.OutcomeTerminal)
			return nil, err
		case Corrupt:
			if br != nil {
				br.Failure()
			}
			tel.ResilienceOutcome(telemetry.OutcomeCorrupt)
			return nil, err
		}
		// Transient: count against the breaker, retry if allowed.
		if br != nil {
			br.Failure()
		}
		if attempt >= t.opt.Retry.MaxAttempts {
			tel.ResilienceOutcome(telemetry.OutcomeTransient)
			return nil, err
		}
		if !t.opt.Budget.Withdraw() {
			tel.ResilienceBudgetExhausted()
			tel.ResilienceOutcome(telemetry.OutcomeBudgetExhausted)
			return nil, err
		}
		t.retries.Add(1)
		tel.RPCKind(uint8(msg.Kind), msg.Kind.String()).Retry()
		t.sleep(t.opt.Retry.Backoff(attempt, trace.Mix64(t.seq.Add(0x9e3779b97f4a7c15))))
	}
}

// Retries returns the lifetime number of retries issued.
func (t *ResilientTransport) Retries() int64 { return t.retries.Load() }

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
