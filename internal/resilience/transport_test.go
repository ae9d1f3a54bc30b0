package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/raceflag"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// scriptTransport answers each call to a peer from a per-peer script of
// outcomes, repeating the last entry once exhausted.
type scriptTransport struct {
	scripts map[addr.Addr][]error
	pos     map[addr.Addr]int
	calls   int
}

func newScript() *scriptTransport {
	return &scriptTransport{scripts: map[addr.Addr][]error{}, pos: map[addr.Addr]int{}}
}

func (s *scriptTransport) set(to addr.Addr, outcomes ...error) { s.scripts[to] = outcomes }

func (s *scriptTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	s.calls++
	script := s.scripts[to]
	if len(script) == 0 {
		return &wire.Message{Kind: wire.KindInfoResp}, nil
	}
	i := s.pos[to]
	if i >= len(script) {
		i = len(script) - 1
	}
	s.pos[to] = s.pos[to] + 1
	if err := script[i]; err != nil {
		return nil, err
	}
	return &wire.Message{Kind: wire.KindInfoResp}, nil
}

var (
	errLost = Mark(errors.New("datagram lost"), Transient)
	errApp  = Mark(errors.New("unexpected message kind"), Terminal)
	errBad  = Mark(errors.New("garbage frame"), Corrupt)
)

func noSleep(time.Duration) {}

func req() *wire.Message { return &wire.Message{Kind: wire.KindInfo} }

func TestResilientRetriesTransientFailures(t *testing.T) {
	inner := newScript()
	inner.set(1, errLost, errLost, nil)
	rt := Wrap(inner, Options{Retry: Policy{MaxAttempts: 3}, Sleep: noSleep})
	resp, err := rt.Call(1, req())
	if err != nil || resp == nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if inner.calls != 3 {
		t.Errorf("attempts = %d, want 3", inner.calls)
	}
	if rt.Retries() != 2 {
		t.Errorf("retries = %d, want 2", rt.Retries())
	}
}

func TestResilientGivesUpAfterMaxAttempts(t *testing.T) {
	inner := newScript()
	inner.set(1, errLost)
	rt := Wrap(inner, Options{Retry: Policy{MaxAttempts: 3}, Sleep: noSleep})
	if _, err := rt.Call(1, req()); !errors.Is(err, errLost) {
		t.Fatalf("err = %v", err)
	}
	if inner.calls != 3 {
		t.Errorf("attempts = %d, want 3", inner.calls)
	}
}

func TestResilientDoesNotRetryTerminalOrCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{{"terminal", errApp}, {"corrupt", errBad}} {
		t.Run(tc.name, func(t *testing.T) {
			inner := newScript()
			inner.set(1, tc.err)
			rt := Wrap(inner, Options{Retry: Policy{MaxAttempts: 5}, Sleep: noSleep})
			if _, err := rt.Call(1, req()); !errors.Is(err, tc.err) {
				t.Fatalf("err = %v", err)
			}
			if inner.calls != 1 {
				t.Errorf("%s failure was retried: %d attempts", tc.name, inner.calls)
			}
		})
	}
}

func TestResilientHonorsBudget(t *testing.T) {
	inner := newScript()
	inner.set(1, errLost)
	tel := telemetry.New(-1)
	// Burst of 1: the first call may retry once, then the budget is dry
	// (ratio so small the calls here never earn a token back).
	rt := Wrap(inner, Options{
		Retry:  Policy{MaxAttempts: 3},
		Budget: NewBudget(0.001, 1),
		Sleep:  noSleep,
		Tel:    tel,
	})
	rt.Call(1, req())
	if rt.Retries() != 1 {
		t.Fatalf("retries = %d, want 1 (budget burst)", rt.Retries())
	}
	rt.Call(1, req())
	if rt.Retries() != 1 {
		t.Errorf("retries = %d after dry budget, want still 1", rt.Retries())
	}
	if got := counterValue(t, tel, "pgrid_resilience_retry_budget_exhausted_total"); got == 0 {
		t.Error("budget exhaustion not counted")
	}
}

func TestResilientBreakerFailsFastAndRecovers(t *testing.T) {
	inner := newScript()
	inner.set(1, errLost)
	clock := newFakeClock()
	tel := telemetry.New(-1)
	rt := Wrap(inner, Options{
		Retry:   Policy{MaxAttempts: 1},
		Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Second, now: clock.now},
		Sleep:   noSleep,
		Tel:     tel,
	})

	// Three failed calls open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := rt.Call(1, req()); err == nil {
			t.Fatal("scripted failure succeeded")
		}
	}
	attempts := inner.calls
	// Fast-fail: no inner attempts while open.
	if _, err := rt.Call(1, req()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if inner.calls != attempts {
		t.Error("open breaker let a call through")
	}
	if ClassOf(Mark(ErrBreakerOpen, Transient)) != Transient {
		t.Error("breaker-open errors must classify transient")
	}

	// Other peers are unaffected.
	if _, err := rt.Call(2, req()); err != nil {
		t.Fatalf("healthy peer affected by peer 1's breaker: %v", err)
	}

	// After the cooldown the probe goes through; the peer has recovered.
	inner.set(1, nil)
	inner.pos[1] = 0
	clock.advance(time.Second)
	if _, err := rt.Call(1, req()); err != nil {
		t.Fatalf("recovery probe failed: %v", err)
	}
	views := rt.Breakers()
	if len(views) != 2 {
		t.Fatalf("breaker views = %d, want 2", len(views))
	}
	if views[0].Peer != 1 || views[0].State != "closed" || views[0].Opens != 1 {
		t.Errorf("peer 1 view = %+v", views[0])
	}
	if got := counterValue(t, tel, "pgrid_resilience_breaker_opens_total"); got != 1 {
		t.Errorf("breaker opens counter = %d, want 1", got)
	}
	if got := counterValue(t, tel, "pgrid_resilience_breakers_open"); got != 0 {
		t.Errorf("open-breakers gauge = %d, want 0 after recovery", got)
	}
}

func TestResilientTerminalDoesNotTripBreaker(t *testing.T) {
	inner := newScript()
	inner.set(1, errApp)
	rt := Wrap(inner, Options{
		Retry:   Policy{MaxAttempts: 1},
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second},
		Sleep:   noSleep,
	})
	for i := 0; i < 10; i++ {
		rt.Call(1, req())
	}
	if v := rt.Breakers(); v[0].State != "closed" {
		t.Errorf("application errors opened the breaker: %+v", v[0])
	}
}

func TestResilientCorruptTripsBreaker(t *testing.T) {
	inner := newScript()
	inner.set(1, errBad)
	rt := Wrap(inner, Options{
		Retry:   Policy{MaxAttempts: 1},
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second},
		Sleep:   noSleep,
	})
	rt.Call(1, req())
	rt.Call(1, req())
	if v := rt.Breakers(); v[0].State != "open" {
		t.Errorf("corrupt responses did not open the breaker: %+v", v[0])
	}
}

func TestResilientDeterministicBackoffSchedule(t *testing.T) {
	run := func() []time.Duration {
		inner := newScript()
		inner.set(1, errLost)
		var slept []time.Duration
		rt := Wrap(inner, Options{
			Retry: Policy{MaxAttempts: 4},
			Seed:  99,
			Sleep: func(d time.Duration) { slept = append(slept, d) },
		})
		rt.Call(1, req())
		return slept
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("sleeps = %d, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sleep %d: %v != %v (same seed must reproduce)", i, a[i], b[i])
		}
	}
}

// counterValue reads one series from an Instruments registry snapshot.
func counterValue(t *testing.T, tel *telemetry.Instruments, name string) int64 {
	t.Helper()
	for _, s := range tel.MetricsSnapshot().Stats {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestAllocBudgetBreakerFastFail: a call an open breaker refuses allocates
// nothing — the refusal is built once, with the peer's breaker — and still
// reads as before: the same text, errors.Is ErrBreakerOpen, Transient. On a
// churning community open breakers refuse a large share of all calls, so a
// per-refusal fmt.Errorf, address Sprintf and Mark wrapper push it over.
func TestAllocBudgetBreakerFastFail(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	inner := newScript()
	inner.set(1, errLost)
	rt := Wrap(inner, Options{
		Retry:   Policy{MaxAttempts: 1},
		Budget:  NewBudget(0.1, 0),
		Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Hour, now: newFakeClock().now},
		Sleep:   noSleep,
		Tel:     telemetry.New(0),
	})
	msg := req()
	var err error
	for i := 0; i < 3; i++ {
		rt.Call(1, msg)
	}
	attempts := inner.calls
	refuse := func() { _, err = rt.Call(1, msg) }
	refuse() // registers the fast-fail outcome's counter
	if got := testing.AllocsPerRun(1000, refuse); got != 0 {
		t.Errorf("a refused call = %.1f allocs, budget 0", got)
	}
	if inner.calls != attempts {
		t.Fatal("the open breaker let a call through")
	}
	want := fmt.Sprintf("%v: peer %v", ErrBreakerOpen, addr.Addr(1))
	if !errors.Is(err, ErrBreakerOpen) || ClassOf(err) != Transient || err.Error() != want {
		t.Errorf("refusal = %q (class %v), want %q, ErrBreakerOpen, Transient", err, ClassOf(err), want)
	}
}
