package addr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pgrid/internal/raceflag"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero set not empty")
	}
	if !s.Add(3) || !s.Add(1) || !s.Add(2) {
		t.Fatal("Add of fresh addrs returned false")
	}
	if s.Add(3) {
		t.Error("Add of duplicate returned true")
	}
	if s.Add(Nil) {
		t.Error("Add of Nil returned true")
	}
	if s.Len() != 3 || !s.Contains(1) || !s.Contains(2) || !s.Contains(3) {
		t.Fatalf("set contents wrong: %v", s.String())
	}
	if !s.Remove(1) || s.Remove(1) {
		t.Error("Remove semantics wrong")
	}
	if s.Contains(1) || s.Len() != 2 {
		t.Error("Remove did not delete")
	}
}

func TestSetSortedAndSlice(t *testing.T) {
	s := NewSet(5, 2, 9, 2)
	sorted := s.Sorted()
	want := []Addr{2, 5, 9}
	if len(sorted) != 3 {
		t.Fatalf("dedup failed: %v", sorted)
	}
	for i := range want {
		if sorted[i] != want[i] {
			t.Errorf("Sorted[%d] = %v, want %v", i, sorted[i], want[i])
		}
	}
	sl := s.Slice()
	sl[0] = 99 // must not alias internal storage
	if s.Contains(99) {
		t.Error("Slice aliases internal storage")
	}
}

func TestUnionAndClone(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(2, 3)
	u := Union(a, b)
	if u.Len() != 3 {
		t.Fatalf("Union size = %d", u.Len())
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Error("Union mutated its inputs")
	}
	c := a.Clone()
	c.Add(42)
	if a.Contains(42) {
		t.Error("Clone aliases original")
	}
}

func TestRandomSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSet(1, 2, 3, 4, 5)
	sub := s.RandomSubsetInto(nil, rng, 3)
	if sub.Len() != 3 {
		t.Fatalf("subset size = %d", sub.Len())
	}
	for _, a := range sub.Slice() {
		if !s.Contains(a) {
			t.Errorf("subset element %v not in source", a)
		}
	}
	if got := s.RandomSubsetInto(nil, rng, 10).Len(); got != 5 {
		t.Errorf("oversized subset len = %d, want 5", got)
	}
	if got := s.RandomSubsetInto(nil, rng, 0).Len(); got != 0 {
		t.Errorf("zero subset len = %d", got)
	}
	if got := s.RandomSubsetInto(nil, rng, -1).Len(); got != 0 {
		t.Errorf("negative subset len = %d", got)
	}
	if s.Len() != 5 {
		t.Error("RandomSubsetInto mutated source")
	}
}

func TestPopRandomDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := []Addr{1, 2, 3}
	seen := map[Addr]bool{}
	for i := 0; i < 3; i++ {
		var a Addr
		a, s = PopRandom(s, rng)
		if a == Nil || seen[a] {
			t.Fatalf("PopRandom returned %v (seen=%v)", a, seen[a])
		}
		seen[a] = true
	}
	if len(s) != 0 {
		t.Error("list not drained")
	}
	if a, _ := PopRandom(s, rng); a != Nil {
		t.Error("PopRandom on empty must return Nil")
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSet(1, 2, 3, 4, 5, 6, 7, 8)
	out := s.ShuffledInto(nil, rng)
	if len(out) != 8 {
		t.Fatalf("Shuffled len = %d", len(out))
	}
	seen := map[Addr]bool{}
	for _, a := range out {
		if !s.Contains(a) || seen[a] {
			t.Fatalf("Shuffled is not a permutation: %v", out)
		}
		seen[a] = true
	}
}

func TestAddrString(t *testing.T) {
	if Nil.String() != "addr(nil)" {
		t.Errorf("Nil renders as %q", Nil.String())
	}
	if Addr(7).String() != "addr(7)" {
		t.Errorf("Addr(7) renders as %q", Addr(7).String())
	}
	if Nil.Valid() || !Addr(0).Valid() {
		t.Error("Valid wrong")
	}
}

func TestPropUnionContainsBoth(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b Set
		for _, x := range xs {
			a.Add(Addr(x))
		}
		for _, y := range ys {
			b.Add(Addr(y))
		}
		u := Union(a, b)
		for _, x := range a.Slice() {
			if !u.Contains(x) {
				return false
			}
		}
		for _, y := range b.Slice() {
			if !u.Contains(y) {
				return false
			}
		}
		return u.Len() <= a.Len()+b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddRemoveInverse(t *testing.T) {
	f := func(xs []uint16, y uint16) bool {
		var s Set
		for _, x := range xs {
			s.Add(Addr(x))
		}
		n := s.Len()
		a := Addr(y)
		if s.Contains(a) {
			return true // nothing to test
		}
		s.Add(a)
		s.Remove(a)
		return s.Len() == n && !s.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The set operations as they stood before they took a buffer, kept as the
// reference the buffer-taking forms are held to: a fresh copy per call.
func refUnion(s, t Set) Set {
	u := Set{addrs: s.Slice()}
	for _, a := range t.addrs {
		u.Add(a)
	}
	return u
}

func refRandomSubset(s Set, rng *rand.Rand, k int) Set {
	if k < 0 {
		k = 0
	}
	out := s.Slice()
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if k < len(out) {
		out = out[:k]
	}
	return Set{addrs: out}
}

// TestPropIntoFormsMatchReference: whatever buffer they are given — none, one
// too small, one that fits, the set's own storage — UnionInto, ShuffledInto
// and RandomSubsetInto return the reference's elements in the reference's
// order, take the same draws from the rng, and leave their arguments alone.
func TestPropIntoFormsMatchReference(t *testing.T) {
	f := func(xs, ys []uint8, k int8, seed int64) bool {
		var s, u Set
		for _, x := range xs {
			s.Add(Addr(x))
		}
		for _, y := range ys {
			u.Add(Addr(y))
		}
		sWas, uWas := s.Slice(), u.Slice()

		wantUnion := refUnion(s, u)
		for _, buf := range [][]Addr{nil, make([]Addr, 0, 1), make([]Addr, 3, s.Len()+u.Len()+3)} {
			if got := UnionInto(buf, s, u); !slices.Equal(got.addrs, wantUnion.addrs) {
				return false
			}
		}
		if !slices.Equal(Union(s, u).addrs, wantUnion.addrs) {
			return false
		}
		// Marks for none, some and all of the addresses, reused across calls
		// and across an epoch that wraps: the same union every time.
		for _, bound := range []int{0, 100, 256} {
			m := NewMarks(bound)
			m.epoch = ^uint32(0) - 1
			for call := 0; call < 3; call++ {
				if got := m.UnionInto(nil, s, u); !slices.Equal(got.addrs, wantUnion.addrs) {
					return false
				}
				if got := m.UnionInto(nil, u, u); !slices.Equal(got.addrs, u.addrs) {
					return false
				}
			}
		}

		for _, buf := range [][]Addr{nil, make([]Addr, 0, 1), make([]Addr, 2, s.Len()+2)} {
			ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := refRandomSubset(s, ref, int(k))
			if sub := s.RandomSubsetInto(buf, got, int(k)); !slices.Equal(sub.addrs, want.addrs) || ref.Int63() != got.Int63() {
				return false
			}
			ref, got = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			all := refRandomSubset(s, ref, s.Len())
			if !slices.Equal(s.ShuffledInto(buf, got), all.addrs) || ref.Int63() != got.Int63() {
				return false
			}
		}
		if !slices.Equal(s.addrs, sWas) || !slices.Equal(u.addrs, uWas) {
			return false
		}

		// In place: a copy the caller owns, shuffled in its own storage.
		ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want := refRandomSubset(s, ref, int(k))
		own := s.Clone()
		sub := own.RandomSubsetInto(own.addrs, got, int(k))
		return slices.Equal(sub.addrs, want.addrs) && ref.Int63() == got.Int63()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCopyFrom(t *testing.T) {
	s := NewSet(1, 2, 3, 4)
	storage := &s.addrs[0]
	s.CopyFrom(NewSet(9, 8))
	if !slices.Equal(s.addrs, []Addr{9, 8}) || &s.addrs[0] != storage {
		t.Errorf("CopyFrom left %v (own storage kept: %t)", s.addrs, &s.addrs[0] == storage)
	}
	s.CopyFrom(s) // a view of the set itself
	if !slices.Equal(s.addrs, []Addr{9, 8}) {
		t.Errorf("CopyFrom of itself left %v", s.addrs)
	}
	src := NewSet(5, 6, 7, 8, 9, 10)
	s.CopyFrom(src)
	s.Remove(5)
	if !slices.Equal(src.addrs, []Addr{5, 6, 7, 8, 9, 10}) {
		t.Errorf("CopyFrom shares storage with its source: %v", src.addrs)
	}
}

// TestAllocBudgetSetOps: with buffers that fit, pooling two full reference
// sets and drawing a subset of the pool is free — the meeting kernel's mix.
func TestAllocBudgetSetOps(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	rng := rand.New(rand.NewSource(1))
	var s, u, own Set
	for i := 0; i < 20; i++ {
		s.Add(Addr(i))
		u.Add(Addr(i + 10))
		own.Add(Addr(100 + i))
	}
	pool, sub := make([]Addr, 0, 41), make([]Addr, 0, 41)
	marks := NewMarks(25) // some addresses marked, some looked for
	if n := testing.AllocsPerRun(100, func() {
		common := marks.UnionInto(pool, s, u)
		own.CopyFrom(common.RandomSubsetInto(sub, rng, 20))
	}); n != 0 {
		t.Errorf("a mix in fitting buffers allocates %v times, want 0", n)
	}
}
