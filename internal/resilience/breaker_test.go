package resilience

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for deterministic breaker
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestBreaker(threshold int, cooldown time.Duration, c *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{Threshold: threshold, Cooldown: cooldown, now: c.now})
}

// TestBreakerStateMachine pins the full closed → open → half-open cycle:
// open on the failure threshold, fail fast during the cooldown, admit one
// probe after it, reopen on probe failure, close on probe success.
func TestBreakerStateMachine(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(3, time.Second, clock)

	if got := b.State(); got != StateClosed {
		t.Fatalf("initial state = %v", got)
	}
	// Failures below the threshold keep the breaker closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Failure()
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2/3 failures = %v", got)
	}
	// The third consecutive failure opens it.
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after threshold failures = %v", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted (half-open), and
	// concurrent calls keep failing fast while it is in flight.
	clock.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the recovery probe after the cooldown")
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state during probe = %v", got)
	}
	if b.Allow() {
		t.Fatal("second call admitted while the probe is in flight")
	}

	// Probe failure reopens with a fresh cooldown.
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v", got)
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a call immediately")
	}
	clock.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("reopened breaker admitted a call before the fresh cooldown elapsed")
	}
	clock.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the second recovery probe")
	}

	// Probe success closes it and resets the failure count: it takes a
	// full threshold of new failures to open again.
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after successful probe = %v", got)
	}
	b.Failure()
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("failure count survived the close: state = %v", got)
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after threshold failures post-recovery = %v", got)
	}

	_, _, opens, _ := b.Snapshot()
	if opens != 3 {
		t.Errorf("lifetime opens = %d, want 3", opens)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(3, time.Second, clock)
	// Interleaved successes keep resetting the streak: never opens.
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Failure()
		b.Success()
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v after interleaved successes", got)
	}
}

func TestBreakerStragglerFailureWhileOpen(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(1, time.Second, clock)
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v", got)
	}
	// A straggler failure from a call issued before the open must not
	// extend the cooldown.
	clock.advance(900 * time.Millisecond)
	b.Failure()
	clock.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("straggler failure extended the cooldown")
	}
}

func TestBreakerTransitionCallback(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(1, time.Second, clock)
	var seen [][2]BreakerState
	b.onTransition = func(from, to BreakerState) { seen = append(seen, [2]BreakerState{from, to}) }

	b.Failure() // closed → open
	clock.advance(time.Second)
	b.Allow()   // open → half-open
	b.Success() // half-open → closed
	want := [][2]BreakerState{
		{StateClosed, StateOpen},
		{StateOpen, StateHalfOpen},
		{StateHalfOpen, StateClosed},
	}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestNewBreakerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("threshold 0 accepted")
		}
	}()
	NewBreaker(BreakerConfig{Threshold: 0})
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
