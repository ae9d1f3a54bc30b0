package peer

import (
	"sync"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

func TestNewPeerDefaults(t *testing.T) {
	p := New(3)
	if p.Addr() != 3 {
		t.Errorf("Addr = %v", p.Addr())
	}
	if p.Path() != bitpath.Empty {
		t.Errorf("new peer path = %q, want empty", p.Path())
	}
	if !p.Online() {
		t.Error("new peer must start online")
	}
	if p.Store() == nil {
		t.Error("store must be initialized")
	}
	if p.RefsAt(1).Len() != 0 {
		t.Error("new peer must have no references")
	}
}

func TestExtendFrom(t *testing.T) {
	p := New(0)
	if !p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1)) {
		t.Fatal("ExtendFrom from correct state failed")
	}
	if p.Path() != "0" || p.PathLen() != 1 {
		t.Fatalf("path = %q", p.Path())
	}
	if rs := p.RefsAt(1); rs.Len() != 1 || !rs.Contains(1) {
		t.Errorf("refs at 1 = %v", rs.String())
	}
	// Stale extension must be rejected.
	if p.ExtendFrom(bitpath.Empty, 1, addr.NewSet(2)) {
		t.Error("ExtendFrom from stale state succeeded")
	}
	if p.Path() != "0" {
		t.Errorf("stale extension mutated path to %q", p.Path())
	}
	// Chained extension from current state.
	if !p.ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(5)) {
		t.Fatal("second ExtendFrom failed")
	}
	if p.Path() != "01" {
		t.Errorf("path = %q", p.Path())
	}
	if rs := p.RefsAt(2); !rs.Contains(5) {
		t.Errorf("refs at 2 = %v", rs.String())
	}
}

func TestExtendFromStripsSelfReference(t *testing.T) {
	p := New(7)
	p.ExtendFrom(bitpath.Empty, 1, addr.NewSet(7, 8))
	if rs := p.RefsAt(1); rs.Contains(7) || !rs.Contains(8) {
		t.Errorf("refs = %v", rs.String())
	}
}

func TestExtendClearsBuddies(t *testing.T) {
	p := New(0)
	p.AddBuddy(4)
	if p.Buddies().Len() != 1 {
		t.Fatal("AddBuddy failed")
	}
	p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	if p.Buddies().Len() != 0 {
		t.Error("ExtendFrom must clear buddies")
	}
}

func TestRefsAtLevels(t *testing.T) {
	p := New(0)
	p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	p.ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(2))
	if p.RefsAt(0).Len() != 0 {
		t.Error("level 0 must be empty")
	}
	if p.RefsAt(3).Len() != 0 {
		t.Error("level beyond path must be empty")
	}
	// RefsAt must return a copy.
	rs := p.RefsAt(1)
	rs.Add(99)
	if p.RefsAt(1).Contains(99) {
		t.Error("RefsAt aliases internal state")
	}
}

func TestSetRefsAt(t *testing.T) {
	p := New(0)
	p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	p.SetRefsAt(1, addr.NewSet(2, 3, 0)) // 0 is self, must be stripped
	rs := p.RefsAt(1)
	if rs.Len() != 2 || !rs.Contains(2) || !rs.Contains(3) || rs.Contains(0) {
		t.Errorf("refs = %v", rs.String())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetRefsAt beyond path must panic")
			}
		}()
		p.SetRefsAt(2, addr.NewSet(9))
	}()
}

func TestAddRefAt(t *testing.T) {
	p := New(0)
	p.ExtendFrom(bitpath.Empty, 1, addr.NewSet(1))
	p.AddRefAt(1, 2)
	p.AddRefAt(1, 2) // duplicate
	p.AddRefAt(1, 0) // self
	rs := p.RefsAt(1)
	if rs.Len() != 2 {
		t.Errorf("refs = %v", rs.String())
	}
}

func TestBuddySelfIgnored(t *testing.T) {
	p := New(5)
	p.AddBuddy(5)
	if p.Buddies().Len() != 0 {
		t.Error("self-buddy recorded")
	}
	p.AddBuddy(6)
	if p.Buddies().Len() != 1 {
		t.Error("buddy not recorded")
	}
	if !p.RemoveBuddy(6) || p.RemoveBuddy(6) || p.Buddies().Len() != 0 {
		t.Error("RemoveBuddy failed")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	p := New(0)
	p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	s := p.Snapshot()
	if s.Path != "0" || s.Addr != 0 || !s.Online || len(s.Refs) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	s.Refs[0].Add(42)
	if p.RefsAt(1).Contains(42) {
		t.Error("snapshot aliases live refs")
	}
}

func TestOnlineToggle(t *testing.T) {
	p := New(0)
	p.SetOnline(false)
	if p.Online() {
		t.Error("SetOnline(false) ignored")
	}
	p.SetOnline(true)
	if !p.Online() {
		t.Error("SetOnline(true) ignored")
	}
}

// TestConcurrentExtendOnlyOneWins exercises the CAS semantics under real
// contention: many goroutines race to apply the same split; exactly one may
// win per state transition.
func TestConcurrentExtendOnlyOneWins(t *testing.T) {
	p := New(0)
	var wg sync.WaitGroup
	wins := make(chan byte, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if p.ExtendFrom(bitpath.Empty, byte(g%2), addr.NewSet(addr.Addr(g+1))) {
				wins <- byte(g % 2)
			}
		}(g)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d concurrent extensions won, want exactly 1", n)
	}
	if p.PathLen() != 1 {
		t.Fatalf("path length = %d", p.PathLen())
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	p := New(3)
	p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	p.ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(2, 4))
	p.AddBuddy(9)
	p.SetOnline(false)
	snap := p.Snapshot()

	q := New(3)
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if q.Path() != "01" || q.Online() {
		t.Errorf("restored path=%q online=%v", q.Path(), q.Online())
	}
	if rs := q.RefsAt(2); rs.Len() != 2 || !rs.Contains(2) || !rs.Contains(4) {
		t.Errorf("refs = %v", rs.String())
	}
	if !q.Buddies().Contains(9) {
		t.Error("buddies lost")
	}
	// Restore must deep-copy: mutating the snapshot later is harmless.
	snap.Refs[0].Add(77)
	if q.RefsAt(1).Contains(77) {
		t.Error("Restore aliases snapshot sets")
	}
}

func TestRestoreValidation(t *testing.T) {
	p := New(3)
	good := Snapshot{Addr: 3, Path: "01", Refs: []addr.Set{addr.NewSet(1), addr.NewSet(2)}, Online: true}
	if err := p.Restore(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	bads := []Snapshot{
		{Addr: 4, Path: "01", Refs: []addr.Set{{}, {}}},      // wrong identity
		{Addr: 3, Path: "01", Refs: []addr.Set{{}}},          // refs/path mismatch
		{Addr: 3, Path: "0x1", Refs: []addr.Set{{}, {}, {}}}, // invalid path
	}
	for i, b := range bads {
		if err := p.Restore(b); err == nil {
			t.Errorf("bad snapshot %d accepted", i)
		}
	}
	// Failed restores must not corrupt state.
	if p.Path() != "01" {
		t.Errorf("path after failed restores = %q", p.Path())
	}
}

func TestRestoreStripsSelfReferences(t *testing.T) {
	p := New(3)
	s := Snapshot{Addr: 3, Path: "0", Refs: []addr.Set{addr.NewSet(3, 5)}, Buddies: addr.NewSet(3, 6), Online: true}
	if err := p.Restore(s); err != nil {
		t.Fatal(err)
	}
	if rs := p.RefsAt(1); rs.Contains(3) || !rs.Contains(5) {
		t.Errorf("refs = %v", rs.String())
	}
	if b := p.Buddies(); b.Contains(3) || !b.Contains(6) {
		t.Errorf("buddies = %v", b.String())
	}
}

func TestStringIncludesPath(t *testing.T) {
	p := New(2)
	p.ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	got := p.String()
	if got != "peer{addr(2) path=1 online=true}" {
		t.Errorf("String = %q", got)
	}
}
