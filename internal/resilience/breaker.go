package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState uint8

const (
	// StateClosed: calls flow; consecutive transient failures are counted.
	StateClosed BreakerState = iota
	// StateOpen: calls fail fast until the cooldown elapses.
	StateOpen
	// StateHalfOpen: one probe call is in flight; its outcome decides
	// between closing and reopening.
	StateHalfOpen
)

// String names the state for views and metrics.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterizes one peer's breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive transient failures that
	// opens the breaker (0 disables breakers entirely).
	Threshold int
	// Cooldown is how long an open breaker refuses calls before letting
	// one probe through (0 means 2s).
	Cooldown time.Duration
	// now overrides the clock in tests.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is one peer's circuit breaker: closed while the peer behaves,
// open (failing fast) after Threshold consecutive failures, half-open
// after the cooldown, when a single probe call decides recovery. Safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu      sync.Mutex
	state   BreakerState
	fails   int       // consecutive failures while closed
	until   time.Time // open: when the next probe is allowed
	probing bool      // half-open: a probe is in flight
	opens   int64     // lifetime closed/half-open → open transitions

	// onTransition, when set, observes every state change (old, new).
	// Called with the breaker's lock held — keep it O(1).
	onTransition func(from, to BreakerState)
}

// NewBreaker returns a closed breaker. A Threshold of 0 panics — callers
// gate on it before constructing (see ResilientTransport).
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		panic("resilience: NewBreaker with non-positive threshold")
	}
	return &Breaker{cfg: cfg.withDefaults()}
}

func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if to == StateOpen {
		b.opens++
	}
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// Allow reports whether a call to the peer may proceed right now. In the
// open state it flips to half-open once the cooldown has elapsed and
// admits exactly one probe; concurrent calls keep failing fast until the
// probe reports back.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.now().Before(b.until) {
			return false
		}
		b.transition(StateHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a call that reached the peer and got a well-formed
// answer (application errors included — the peer is alive). Closes the
// breaker from any state.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	b.transition(StateClosed)
}

// Failure reports a transient or corrupt outcome. Closed breakers count
// toward the threshold; a failed half-open probe reopens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.transition(StateOpen)
			b.until = b.cfg.now().Add(b.cfg.Cooldown)
		}
	case StateHalfOpen:
		b.probing = false
		b.transition(StateOpen)
		b.until = b.cfg.now().Add(b.cfg.Cooldown)
	case StateOpen:
		// A straggler from before the breaker opened; nothing to count.
	}
}

// Snapshot returns the state, the consecutive-failure count, the lifetime
// number of opens, and (while open) when the next probe is allowed.
func (b *Breaker) Snapshot() (state BreakerState, fails int, opens int64, until time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails, b.opens, b.until
}
