package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/raceflag"
)

func TestApplyAndGet(t *testing.T) {
	s := New()
	e := Entry{Key: bitpath.MustParse("0101"), Name: "a.mp3", Holder: 7, Version: 1}
	if !s.Apply(e) {
		t.Fatal("first Apply returned false")
	}
	got, ok := s.Get(e.Key, e.Name)
	if !ok || got != e {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestApplyVersionMonotone(t *testing.T) {
	s := New()
	e := Entry{Key: bitpath.MustParse("01"), Name: "x", Holder: 1, Version: 5}
	s.Apply(e)
	stale := e
	stale.Version = 3
	stale.Holder = 9
	if s.Apply(stale) {
		t.Error("Apply accepted stale version")
	}
	if got, _ := s.Get(e.Key, e.Name); got.Version != 5 || got.Holder != 1 {
		t.Errorf("stale overwrote: %v", got)
	}
	same := e
	same.Holder = 9
	if s.Apply(same) {
		t.Error("Apply accepted equal version (must be strictly fresher)")
	}
	fresh := e
	fresh.Version = 6
	fresh.Holder = 9
	if !s.Apply(fresh) {
		t.Error("Apply rejected fresher version")
	}
	if got, _ := s.Get(e.Key, e.Name); got.Version != 6 || got.Holder != 9 {
		t.Errorf("fresh did not overwrite: %v", got)
	}
}

func TestLookupMultipleNamesSameKey(t *testing.T) {
	s := New()
	k := bitpath.MustParse("110")
	s.Apply(Entry{Key: k, Name: "b", Holder: 2, Version: 1})
	s.Apply(Entry{Key: k, Name: "a", Holder: 1, Version: 1})
	got := s.Lookup(k)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("Lookup = %v", got)
	}
	if len(s.Lookup(bitpath.MustParse("111"))) != 0 {
		t.Error("Lookup of absent key returned entries")
	}
}

func TestPrefixScan(t *testing.T) {
	s := New()
	for i, k := range []string{"000", "001", "010", "100", "0010"} {
		s.Apply(Entry{Key: bitpath.MustParse(k), Name: fmt.Sprintf("n%d", i), Holder: 1, Version: 1})
	}
	got := s.PrefixScan(bitpath.MustParse("00"))
	if len(got) != 3 {
		t.Fatalf("PrefixScan(00) = %v", got)
	}
	for _, e := range got {
		if !e.Key.HasPrefix(bitpath.MustParse("00")) {
			t.Errorf("entry %v outside prefix", e)
		}
	}
	if len(s.Entries()) != 5 {
		t.Errorf("Entries len = %d", len(s.Entries()))
	}
	// Sorted by key order.
	all := s.Entries()
	for i := 1; i < len(all); i++ {
		if bitpath.Compare(all[i-1].Key, all[i].Key) > 0 {
			t.Errorf("Entries not sorted at %d", i)
		}
	}
}

func TestDelete(t *testing.T) {
	s := New()
	k := bitpath.MustParse("01")
	s.Apply(Entry{Key: k, Name: "x", Holder: 1, Version: 1})
	if !s.Delete(k, "x") {
		t.Fatal("Delete existing returned false")
	}
	if s.Delete(k, "x") {
		t.Error("Delete absent returned true")
	}
	if s.Len() != 0 {
		t.Error("Delete left entries behind")
	}
	if s.Delete(bitpath.MustParse("10"), "y") {
		t.Error("Delete on absent key returned true")
	}
}

func TestEvict(t *testing.T) {
	s := New()
	in := Entry{Key: bitpath.MustParse("010"), Name: "in", Holder: 1, Version: 1}
	out := Entry{Key: bitpath.MustParse("10"), Name: "out", Holder: 2, Version: 1}
	out2 := Entry{Key: bitpath.MustParse("00"), Name: "out2", Holder: 3, Version: 1}
	s.Apply(in)
	s.Apply(out)
	s.Apply(out2)
	evicted := s.Evict(bitpath.MustParse("01"))
	if len(evicted) != 2 {
		t.Fatalf("Evict returned %v", evicted)
	}
	if s.Len() != 1 {
		t.Errorf("store kept %d entries, want 1", s.Len())
	}
	if _, ok := s.Get(in.Key, in.Name); !ok {
		t.Error("Evict removed an entry under the kept prefix")
	}
}

func TestHosted(t *testing.T) {
	s := New()
	s.Host(Entry{Key: bitpath.MustParse("01"), Name: "b", Holder: 1, Version: 1})
	s.Host(Entry{Key: bitpath.MustParse("11"), Name: "a", Holder: 1, Version: 1})
	got := s.Hosted()
	if len(got) != 2 {
		t.Fatalf("Hosted = %v", got)
	}
	// Hosting must not create index entries.
	if s.Len() != 0 {
		t.Error("Host created index entries")
	}
}

func TestClear(t *testing.T) {
	s := New()
	s.Apply(Entry{Key: bitpath.MustParse("0"), Name: "x", Holder: 1, Version: 1})
	s.Host(Entry{Key: bitpath.MustParse("0"), Name: "h", Holder: 1, Version: 1})
	s.Clear()
	if s.Len() != 0 {
		t.Error("Clear left index entries")
	}
	if len(s.Hosted()) != 1 {
		t.Error("Clear must not remove hosted items")
	}
}

func TestConcurrentApplyAndLookup(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := bitpath.FromUint(uint64(i%16), 4)
				s.Apply(Entry{Key: k, Name: fmt.Sprintf("g%d-i%d", g, i), Holder: 1, Version: uint64(i)})
				s.Lookup(k)
				s.PrefixScan(k.Prefix(2))
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", s.Len(), 8*200)
	}
}

func TestPropApplyKeepsMaxVersion(t *testing.T) {
	f := func(versions []uint8) bool {
		s := New()
		k := bitpath.MustParse("0110")
		var max uint64
		applied := false
		for _, v := range versions {
			ver := uint64(v)
			s.Apply(Entry{Key: k, Name: "n", Holder: 1, Version: ver})
			if ver > max || !applied {
				max = ver
				applied = true
			}
		}
		if !applied {
			return s.Len() == 0
		}
		got, ok := s.Get(k, "n")
		return ok && got.Version == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEvictPartition(t *testing.T) {
	f := func(keys []uint16) bool {
		s := New()
		for i, kv := range keys {
			k := bitpath.FromUint(uint64(kv), 10)
			s.Apply(Entry{Key: k, Name: fmt.Sprintf("n%d", i), Holder: 1, Version: 1})
		}
		total := s.Len()
		keep := bitpath.MustParse("01")
		evicted := s.Evict(keep)
		if len(evicted)+s.Len() != total {
			return false
		}
		for _, e := range evicted {
			if e.Key.HasPrefix(keep) {
				return false
			}
		}
		for _, e := range s.Entries() {
			if !e.Key.HasPrefix(keep) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	s := New()
	if sum := s.Summary(); sum != (Summary{}) {
		t.Fatalf("empty store summary = %+v", sum)
	}
	s.Apply(Entry{Key: bitpath.MustParse("01"), Name: "a", Holder: 1, Version: 3})
	s.Apply(Entry{Key: bitpath.MustParse("10"), Name: "b", Holder: 2, Version: 7})
	sum := s.Summary()
	if sum.Entries != 2 || sum.MaxVersion != 7 || sum.Hash == 0 {
		t.Fatalf("summary = %+v, want 2 entries, max version 7, non-zero hash", sum)
	}

	// The hash is content-defined and order-independent: a second store
	// filled in reverse order fingerprints identically, and any change to
	// an entry changes it.
	s2 := New()
	s2.Apply(Entry{Key: bitpath.MustParse("10"), Name: "b", Holder: 2, Version: 7})
	s2.Apply(Entry{Key: bitpath.MustParse("01"), Name: "a", Holder: 1, Version: 3})
	if sum2 := s2.Summary(); sum2 != sum {
		t.Errorf("order-dependent summary: %+v vs %+v", sum, sum2)
	}
	s2.Apply(Entry{Key: bitpath.MustParse("10"), Name: "b", Holder: 2, Version: 8})
	if sum2 := s2.Summary(); sum2.Hash == sum.Hash || sum2.MaxVersion != 8 {
		t.Errorf("fresher entry did not move the fingerprint: %+v", sum2)
	}

	// Hosting is not indexing: hosted items stay out of the fingerprint.
	s.Host(Entry{Key: bitpath.MustParse("11"), Name: "c", Holder: 3, Version: 9})
	if got := s.Summary(); got != sum {
		t.Errorf("hosted item leaked into the index summary: %+v vs %+v", got, sum)
	}
}

// TestPrefixDigestCrosswiseStale checks range digests and fingerprints on
// replicas that are stale crosswise: one holds A at the fresher version and B
// at the older, the other the reverse. Versions that differ only in their
// last digit leave two FNV-1a terms a small multiple of the prime apart, so
// unmixed sums of such pairs collide often; mixed ones must not collide at
// all, and the fingerprint is the digest of the whole range.
func TestPrefixDigestCrosswiseStale(t *testing.T) {
	keys := []string{"0", "01", "0110", "1", "10", "1101"}
	pairs := 0
	for _, v := range []uint64{1, 2, 12, 99} {
		for i := 0; i < 40; i++ {
			a := Entry{Key: bitpath.MustParse(keys[i%len(keys)]), Name: fmt.Sprintf("a%d", i), Holder: addr.Addr(1 + i%3)}
			b := Entry{Key: bitpath.MustParse(keys[(i+1)%len(keys)]), Name: fmt.Sprintf("b%d", i), Holder: addr.Addr(1 + i%5)}
			x, y := New(), New()
			a.Version, b.Version = v+1, v
			x.Apply(a)
			x.Apply(b)
			a.Version, b.Version = v, v+1
			y.Apply(a)
			y.Apply(b)
			for _, s := range []*Store{x, y} {
				if h, d := s.Summary().Hash, s.PrefixDigest(bitpath.Empty); h != d {
					t.Errorf("%v and %v: fingerprint %#x, root range digest %#x", a, b, h, d)
				}
			}
			if hx, hy := x.Summary().Hash, y.Summary().Hash; hx == hy {
				t.Errorf("%v and %v at %d/%d: crosswise stale replicas share fingerprint %#x", a, b, v, v+1, hx)
			}
			for _, p := range []bitpath.Path{bitpath.Empty, bitpath.MustParse("0"), bitpath.MustParse("1")} {
				if x.PrefixScan(p) == nil && y.PrefixScan(p) == nil {
					continue
				}
				pairs++
				if dx, dy := x.PrefixDigest(p), y.PrefixDigest(p); dx == dy {
					t.Errorf("%v and %v at %d/%d: crosswise stale replicas share digest %#x under %q", a, b, v, v+1, dx, p)
				}
			}
		}
	}
	if pairs < 300 {
		t.Fatalf("only %d replica pairs compared", pairs)
	}
}

// Merge merges two scan results into a fresh list, a's entry on a version
// tie, copying nothing when either is empty: the pairwise fold Fold's one
// k-way merge replaced, and its oracle.
func Merge(a, b []Entry) []Entry {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return appendMerge(make([]Entry, 0, len(a)+len(b)), a, b)
}

// appendMerge appends the merge of a and b to out, a's entry on a version
// tie.
func appendMerge(out, a, b []Entry) []Entry {
	for len(a) > 0 && len(b) > 0 {
		switch c := order(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			e := a[0]
			if b[0].Version > e.Version {
				e = b[0]
			}
			out, a, b = append(out, e), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func TestMerge(t *testing.T) {
	e := func(key, name string, v uint64) Entry {
		return Entry{Key: bitpath.MustParse(key), Name: name, Holder: addr.Addr(v), Version: v}
	}
	a := []Entry{e("00", "x", 1), e("01", "a", 3), e("01", "b", 2), e("1", "a", 1)}
	b := []Entry{e("01", "a", 2), e("01", "b", 5), e("010", "a", 1), e("1", "a", 1), e("11", "z", 1)}
	want := []Entry{e("00", "x", 1), e("01", "a", 3), e("01", "b", 5), e("010", "a", 1), e("1", "a", 1), e("11", "z", 1)}
	if got := Merge(a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("Merge(a, b) = %v, want %v", got, want)
	}
	if got := Merge(b, a); !reflect.DeepEqual(got, want) {
		t.Errorf("Merge(b, a) = %v, want %v", got, want)
	}
	if got := Merge(nil, a); !reflect.DeepEqual(got, a) {
		t.Errorf("Merge(nil, a) = %v", got)
	}
	if got := Merge(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("Merge(a, nil) = %v", got)
	}
	if a[1].Version != 3 || b[1].Version != 5 {
		t.Error("Merge wrote to its inputs")
	}
}

// TestFoldMatchesMerge: a Fold over random scans — sorted, sharing keys,
// with version ties and empty scans among them — holds after every Add what
// folding the same scans with Merge does: the fresher version per (key,
// name), the earlier scan's on a tie (each scan's entries carry its index as
// their holder, so the winner shows). It merges into a slice of exactly the
// result's size and never writes to a scan it was given.
func TestFoldMatchesMerge(t *testing.T) {
	keys := []string{"0", "00", "01", "010", "1", "11", "110"}
	rng := rand.New(rand.NewSource(40))
	scan := func(holder int) []Entry {
		if rng.Intn(4) == 0 {
			return nil
		}
		var out []Entry
		for _, k := range keys {
			for _, name := range []string{"a", "b"} {
				if rng.Intn(2) == 0 {
					out = append(out, Entry{Key: bitpath.MustParse(k), Name: name,
						Holder: addr.Addr(holder), Version: uint64(1 + rng.Intn(3))})
				}
			}
		}
		slices.SortFunc(out, order)
		return out
	}
	for trial := 0; trial < 500; trial++ {
		var (
			fold   Fold
			oracle []Entry
			scans  [][]Entry
			copies [][]Entry
			// nonEmpty counts the scans with entries: past one, the fold merges.
			nonEmpty int
		)
		for visit := 0; visit < 1+rng.Intn(12); visit++ {
			s := scan(visit)
			scans, copies = append(scans, s), append(copies, slices.Clone(s))
			fold.Add(s)
			oracle = Merge(oracle, s)
			if got := fold.Entries(); !slices.Equal(got, oracle) {
				t.Fatalf("trial %d, after scan %d: fold = %v, Merge = %v", trial, visit, got, oracle)
			} else if nonEmpty += min(len(s), 1); nonEmpty > 1 && cap(got) != len(got) {
				t.Fatalf("trial %d, after scan %d: fold of %d entries in a slice of %d", trial, visit, len(got), cap(got))
			}
		}
		for i := range scans {
			if !slices.Equal(scans[i], copies[i]) {
				t.Fatalf("trial %d: the fold wrote to scan %d", trial, i)
			}
		}
	}
}

// TestAllocBudgetStore: reads cost what they return — a scan is one
// exact-size copy, the count and the fingerprint are fields, a fold of eight
// scans is its one exact-size merge — and a version overwrite of a known
// (key, name) allocates nothing.
func TestAllocBudgetStore(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	s, entries := benchStore(4096)
	prefix := bitpath.MustParse("0101")
	version := uint64(1)
	scans := make([][]Entry, 8)
	for i := range scans {
		scans[i] = s.PrefixScan(prefix[:i%4+1])
	}
	for _, tc := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"PrefixScan", 1, func() { s.PrefixScan(prefix) }},
		{"Entries", 1, func() { s.Entries() }},
		{"Lookup", 1, func() { s.Lookup(entries[7].Key) }},
		{"CountOutside", 0, func() { s.CountOutside(prefix) }},
		{"Len", 0, func() { s.Len() }},
		{"Summary", 0, func() { s.Summary() }},
		{"Get", 0, func() { s.Get(entries[7].Key, entries[7].Name) }},
		{"Fold of 8 scans", 1, func() {
			var f Fold
			for _, scan := range scans {
				f.Add(scan)
			}
			f.Entries()
		}},
		{"Apply overwrite", 0, func() {
			version++
			e := entries[int(version)%len(entries)]
			e.Version = version
			if !s.Apply(e) {
				t.Fatal("overwrite rejected")
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.budget {
			t.Errorf("%s = %.1f allocs, want %.0f", tc.name, got, tc.budget)
		}
	}
}
