package resilience

import (
	"testing"
	"time"
)

func TestBackoffGrowsExponentiallyWithJitter(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	prevMax := time.Duration(0)
	for retry := 1; retry <= 4; retry++ {
		nominal := p.BaseDelay << (retry - 1)
		if nominal > p.MaxDelay {
			nominal = p.MaxDelay
		}
		d := p.Backoff(retry, 42)
		if d < nominal/2 || d >= nominal {
			t.Errorf("retry %d: backoff %v outside [%v, %v)", retry, d, nominal/2, nominal)
		}
		if nominal/2 < prevMax/2 {
			t.Errorf("retry %d: nominal shrank", retry)
		}
		prevMax = nominal
	}
	// Growth is capped at MaxDelay.
	if d := p.Backoff(10, 42); d >= p.MaxDelay {
		t.Errorf("capped backoff %v >= MaxDelay %v", d, p.MaxDelay)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	p := Policy{MaxAttempts: 3}
	for retry := 1; retry <= 3; retry++ {
		if a, b := p.Backoff(retry, 7), p.Backoff(retry, 7); a != b {
			t.Errorf("same seed, retry %d: %v != %v", retry, a, b)
		}
	}
	// Different seeds decorrelate (not a hard guarantee per-draw, but three
	// identical draws in a row would mean the seed is ignored).
	same := 0
	for retry := 1; retry <= 3; retry++ {
		if p.Backoff(retry, 1) == p.Backoff(retry, 2) {
			same++
		}
	}
	if same == 3 {
		t.Error("backoff ignores the seed")
	}
}

func TestBudgetBoundsRetries(t *testing.T) {
	b := NewBudget(0.5, 2) // starts with 2 retries banked, earns 1 per 2 calls
	refused := 0
	withdraw := func() bool {
		ok := b.Withdraw()
		if !ok {
			refused++
		}
		return ok
	}
	// Drain the initial burst.
	if !withdraw() || !withdraw() {
		t.Fatal("initial burst refused")
	}
	if withdraw() {
		t.Fatal("empty budget granted a retry")
	}
	// Two deposits earn exactly one retry.
	b.Deposit()
	if withdraw() {
		t.Fatal("half a token granted a retry")
	}
	b.Deposit()
	if !withdraw() {
		t.Fatal("earned retry refused")
	}
	if withdraw() {
		t.Fatal("budget granted more than deposited")
	}
	if refused != 3 {
		t.Errorf("refused = %d, want 3", refused)
	}
}

func TestBudgetCapsAtBurst(t *testing.T) {
	b := NewBudget(1.0, 3)
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	granted := 0
	for b.Withdraw() {
		granted++
	}
	if granted != 3 {
		t.Errorf("granted %d retries after saturation, want burst cap 3", granted)
	}
}

func TestNilBudgetNeverRefuses(t *testing.T) {
	var b *Budget
	b.Deposit()
	for i := 0; i < 10; i++ {
		if !b.Withdraw() {
			t.Fatal("nil budget refused")
		}
	}
	if b.Tokens() != 0 {
		t.Error("nil budget reported state")
	}
}
