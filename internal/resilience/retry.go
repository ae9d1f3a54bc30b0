package resilience

import (
	"sync/atomic"
	"time"

	"pgrid/internal/trace"
)

// Policy bounds the retry loop for one RPC: how many attempts in total,
// and how the delay between them grows.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (0 or 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (0 means 500ms).
	MaxDelay time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// Backoff returns the delay before retry number `retry` (1-based), with
// deterministic jitter: the delay doubles per retry, capped at MaxDelay,
// then is scaled into [1/2, 1) of itself by a splitmix64 draw of
// (seed, retry). Same seed, same schedule — chaos runs reproduce exactly —
// while distinct seeds decorrelate, so a community that lost the same
// datagram does not retry in lockstep.
func (p Policy) Backoff(retry int, seed uint64) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Jitter into [d/2, d): keep at least half the nominal backoff so
	// growth stays exponential, spread the rest.
	u := trace.Mix64(seed + 0x9e3779b97f4a7c15*uint64(retry+1))
	frac := float64(u>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// Budget is a token bucket that bounds retries to a fraction of the
// request load, so retries cannot amplify an outage: every first attempt
// deposits Ratio tokens, every retry withdraws one, and the bucket is
// capped at Burst. A fresh budget starts full, so low-traffic clients can
// still retry immediately. All methods are safe for concurrent use and
// nil-safe (a nil *Budget never refuses).
type Budget struct {
	ratio  int64 // millitokens deposited per call
	cap    int64 // millitokens
	tokens atomic.Int64
}

// NewBudget returns a budget allowing roughly ratio retries per call
// (e.g. 0.2 = one retry per five calls) with a burst reserve of `burst`
// retries. Non-positive arguments fall back to 0.1 and 10.
func NewBudget(ratio float64, burst int) *Budget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	b := &Budget{ratio: int64(ratio * 1000), cap: int64(burst) * 1000}
	if b.ratio <= 0 {
		b.ratio = 1
	}
	b.tokens.Store(b.cap)
	return b
}

// Deposit credits the budget for one first attempt.
func (b *Budget) Deposit() {
	if b == nil {
		return
	}
	for {
		cur := b.tokens.Load()
		next := cur + b.ratio
		if next > b.cap {
			next = b.cap
		}
		if cur == next || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Withdraw takes one retry token, reporting whether the retry is allowed.
func (b *Budget) Withdraw() bool {
	if b == nil {
		return true
	}
	for {
		cur := b.tokens.Load()
		if cur < 1000 {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// Tokens returns the current balance in whole retries.
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	return float64(b.tokens.Load()) / 1000
}
