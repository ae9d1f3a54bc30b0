package store

import (
	"fmt"
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
)

func benchStore(n int) (*Store, []Entry) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Key:     bitpath.Random(rng, 12),
			Name:    fmt.Sprintf("item-%d", i),
			Holder:  1,
			Version: 1,
		}
		s.Apply(entries[i])
	}
	return s, entries
}

func BenchmarkStoreApply(b *testing.B) {
	s, entries := benchStore(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%4096]
		e.Version = uint64(i + 2)
		s.Apply(e)
	}
}

// BenchmarkStoreApplyInsert is the insert path: n new (key, name) pairs in
// random key order into an empty store, so at 65 536 the index is split
// into more than a hundred chunks by the end.
func BenchmarkStoreApplyInsert(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			_, entries := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			var s *Store
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					s = New()
				}
				s.Apply(entries[i%n])
			}
		})
	}
}

func BenchmarkStoreSummary(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, _ := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Summary()
			}
		})
	}
}

func BenchmarkStoreLen(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, _ := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Len()
			}
		})
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s, entries := benchStore(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%4096]
		s.Get(e.Key, e.Name)
	}
}

func BenchmarkStorePrefixScan(b *testing.B) {
	s, _ := benchStore(4096)
	prefix := bitpath.MustParse("0101")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PrefixScan(prefix)
	}
}

func BenchmarkStoreEvict(b *testing.B) {
	// Evict + reapply to keep the store populated across iterations.
	s, _ := benchStore(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evicted := s.Evict("0")
		for _, e := range evicted {
			s.Apply(e)
		}
	}
}
