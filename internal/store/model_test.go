package store

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

// model is the store as a plain map: the reference the ordered index is
// checked against after every operation.
type model map[[2]string]Entry

func (m model) apply(e Entry) bool {
	id := [2]string{string(e.Key), e.Name}
	if old, ok := m[id]; ok && old.Version >= e.Version {
		return false
	}
	m[id] = e
	return true
}

// scan returns the model's entries accepted by keep in (key, name) order.
func (m model) scan(keep func(Entry) bool) []Entry {
	var out []Entry
	for _, e := range m {
		if keep(e) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := bitpath.Compare(out[i].Key, out[j].Key); c != 0 {
			return c < 0
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// summary is Summary computed from scratch: every entry's term, mixed and
// summed.
func (m model) summary() Summary {
	var sum Summary
	for _, e := range m {
		sum.Entries++
		if e.Version > sum.MaxVersion {
			sum.MaxVersion = e.Version
		}
		sum.Hash += mix(term(e))
	}
	return sum
}

// term is an entry's raw FNV-1a term computed from scratch: fmt.Fprintf of
// the entry into a fresh FNV-1a hasher. Its share of Summary.Hash is
// mix(term).
func term(e Entry) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", e.Key, e.Name, int64(e.Holder), e.Version)
	return h.Sum64()
}

func checkAgainstModel(t *testing.T, s *Store, m model, prefixes []bitpath.Path, step int) {
	t.Helper()
	all := m.scan(func(Entry) bool { return true })
	if got := s.Entries(); !reflect.DeepEqual(got, all) {
		t.Fatalf("step %d: Entries = %v, want %v", step, got, all)
	}
	if s.Len() != len(m) {
		t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(m))
	}
	if got, want := s.Summary(), m.summary(); got != want {
		t.Fatalf("step %d: Summary = %+v, want %+v", step, got, want)
	}
	for _, p := range prefixes {
		p := p
		under := func(e Entry) bool { return e.Key.HasPrefix(p) }
		scan, digest := s.AppendPrefixScan(nil, p)
		if want := m.scan(under); !reflect.DeepEqual(scan, want) {
			t.Fatalf("step %d: PrefixScan(%s) = %v, want %v", step, p, scan, want)
		}
		var sum uint64
		for _, e := range scan {
			sum += mix(term(e))
		}
		if got := s.PrefixDigest(p); got != sum || digest != sum {
			t.Fatalf("step %d: PrefixDigest(%s) = %#x, AppendPrefixScan's digest %#x, Σ mix(term) over the scan %#x", step, p, got, digest, sum)
		}
		if got, want := s.Lookup(p), m.scan(func(e Entry) bool { return e.Key == p }); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Lookup(%s) = %v, want %v", step, p, got, want)
		}
		if got, want := s.CountOutside(p), len(m)-len(m.scan(under)); got != want {
			t.Fatalf("step %d: CountOutside(%s) = %d, want %d", step, p, got, want)
		}
	}
	for _, e := range all {
		if got, ok := s.Get(e.Key, e.Name); !ok || got != e {
			t.Fatalf("step %d: Get(%s, %q) = %v, %v, want %v", step, e.Key, e.Name, got, ok, e)
		}
	}
}

// TestModelRandomOps drives the store and the map model with the same
// random Apply/Delete/Evict/Clear/Host sequence. Short keys with a few
// names exercise prefix relations, the empty key and version overwrites;
// the long-key run grows the index past several chunk splits.
func TestModelRandomOps(t *testing.T) {
	for _, tc := range []struct {
		name             string
		seeds, ops, bits int
		names, every     int
		evictPerMille    int
		wantChunks       int
	}{
		{"short-keys", 40, 300, 4, 3, 1, 60, 1},
		{"many-chunks", 2, 8000, 12, 4, 250, 1, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := 0; seed < tc.seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				randKey := func() bitpath.Path { return bitpath.Random(rng, rng.Intn(tc.bits+1)) }
				randName := func() string { return fmt.Sprintf("n%d", rng.Intn(tc.names)) }
				s, m := New(), model{}
				chunks := 0
				for step := 0; step < tc.ops; step++ {
					chunks = max(chunks, len(s.chunks))
					key, name := randKey(), randName()
					switch r := rng.Intn(1000); {
					case r < 700:
						e := Entry{Key: key, Name: name, Holder: addr.Addr(rng.Intn(5) - 1), Version: uint64(rng.Intn(12))}
						if got, want := s.Apply(e), m.apply(e); got != want {
							t.Fatalf("seed %d step %d: Apply(%v) = %v, want %v", seed, step, e, got, want)
						}
					case r < 900:
						_, want := m[[2]string{string(key), name}]
						delete(m, [2]string{string(key), name})
						if got := s.Delete(key, name); got != want {
							t.Fatalf("seed %d step %d: Delete(%s, %q) = %v, want %v", seed, step, key, name, got, want)
						}
					case r < 900+tc.evictPerMille:
						keep := bitpath.Random(rng, rng.Intn(3))
						want := m.scan(func(e Entry) bool { return !e.Key.HasPrefix(keep) })
						for _, e := range want {
							delete(m, [2]string{string(e.Key), e.Name})
						}
						if got := s.Evict(keep); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d: Evict(%s) = %v, want %v", seed, step, keep, got, want)
						}
					case r < 980:
						s.Host(Entry{Key: key, Name: name, Holder: 1, Version: 1})
					case tc.every == 1:
						s.Clear()
						m = model{}
					}
					if step%tc.every == 0 || step == tc.ops-1 {
						checkAgainstModel(t, s, m, []bitpath.Path{"", "0", "1", "01", "10", "0110", key}, step)
					}
				}
				if chunks < tc.wantChunks {
					t.Errorf("seed %d: the index never held %d chunks (max %d): the run does not cover splits", seed, tc.wantChunks, chunks)
				}
			}
		})
	}
}

// TestSummaryAfterMaxRemoved pins the one write that cannot update the
// version clock in O(1): removing the entry that carried the maximum.
func TestSummaryAfterMaxRemoved(t *testing.T) {
	s, m := New(), model{}
	for _, e := range []Entry{
		{Key: "", Name: "", Holder: addr.Nil, Version: 2},
		{Key: "01", Name: "a", Holder: 3, Version: 9},
		{Key: "10", Name: "b", Holder: -7, Version: 9},
		{Key: "11", Name: "c", Holder: 1, Version: 4},
	} {
		s.Apply(e)
		m.apply(e)
	}
	s.Delete("01", "a")
	delete(m, [2]string{"01", "a"})
	if got, want := s.Summary(), m.summary(); got != want || got.MaxVersion != 9 {
		t.Fatalf("after deleting one of two max entries: %+v, want %+v", got, want)
	}
	s.Evict("1")
	delete(m, [2]string{"", ""})
	if got, want := s.Summary(), m.summary(); got != want {
		t.Fatalf("after Evict: %+v, want %+v", got, want)
	}
	s.Delete("10", "b")
	delete(m, [2]string{"10", "b"})
	if got, want := s.Summary(), m.summary(); got != want || got.MaxVersion != 4 {
		t.Fatalf("after deleting the max entry: %+v, want %+v", got, want)
	}
}
