package central

import (
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/store"
)

func entry(name string, version uint64) store.Entry {
	return store.Entry{Key: bitpath.HashKey(name, 10), Name: name, Holder: 1, Version: version}
}

func TestPublishAndLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(3)
	s.Publish(entry("a.mp3", 1))
	res := s.Lookup(rng, "a.mp3")
	if !res.Found || res.Entry.Name != "a.mp3" {
		t.Fatalf("res = %+v", res)
	}
	if res.Messages != 2 {
		t.Errorf("round trip cost %d messages, want 2", res.Messages)
	}
	if miss := s.Lookup(rng, "absent"); miss.Found {
		t.Errorf("miss = %+v", miss)
	}
}

func TestPublishVersionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := New(1)
	s.Publish(entry("a", 5))
	s.Publish(entry("a", 3))
	if res := s.Lookup(rng, "a"); res.Entry.Version != 5 {
		t.Errorf("stale publish overwrote: %+v", res)
	}
	s.Publish(entry("a", 6))
	if res := s.Lookup(rng, "a"); res.Entry.Version != 6 {
		t.Errorf("fresh publish ignored: %+v", res)
	}
}

func TestStorageIsFullCatalog(t *testing.T) {
	s := New(2)
	for i := 0; i < 100; i++ {
		s.Publish(store.Entry{Key: bitpath.FromUint(uint64(i), 10), Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Version: 1})
	}
	if got := s.StoragePerReplica(); got < 90 {
		t.Errorf("storage = %d, expected O(D)", got)
	}
}

func TestOfflineReplicasRetried(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(3)
	s.Publish(entry("a", 1))
	s.SetOnline(0, false)
	s.SetOnline(1, false)
	found := 0
	for i := 0; i < 50; i++ {
		res := s.Lookup(rng, "a")
		if res.Found {
			found++
			if res.Messages < 2 {
				t.Errorf("messages = %d", res.Messages)
			}
		}
	}
	if found != 50 {
		t.Errorf("lookups failed despite one online replica: %d/50", found)
	}
	s.SetOnline(2, false)
	if res := s.Lookup(rng, "a"); res.Found || res.Messages != 3 {
		t.Errorf("all-offline res = %+v, want 3 unanswered requests", res)
	}
}

func TestLoadConcentratesOnServer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := New(1)
	s.Publish(entry("a", 1))
	for i := 0; i < 1000; i++ {
		s.Lookup(rng, "a")
	}
	if got := s.MaxLoad(); got != 1000 {
		t.Errorf("MaxLoad = %d, want all 1000 queries on the single server", got)
	}
	if ls := s.Load(); len(ls) != 1 || ls[0] != 1000 {
		t.Errorf("Load = %v", ls)
	}
}

func TestLoadSpreadsAcrossReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(4)
	s.Publish(entry("a", 1))
	for i := 0; i < 4000; i++ {
		s.Lookup(rng, "a")
	}
	for i, l := range s.Load() {
		if l < 800 || l > 1200 {
			t.Errorf("replica %d load %d far from uniform 1000", i, l)
		}
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// SetOnline toggles one replica.
func (s *Service) SetOnline(i int, v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.online[i] = v
}

// Load returns the per-replica query counts.
func (s *Service) Load() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, len(s.load))
	copy(out, s.load)
	return out
}
