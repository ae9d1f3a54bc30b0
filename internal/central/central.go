// Package central implements the centralized replicated-server baseline of
// the paper's Section 6 comparison: one (or a few replicated) index servers
// store a reference for every data item; clients resolve queries with a
// single round trip. Per query this is cheap, but the server's storage
// grows as O(D) and its load as O(N) — the scaling bottleneck the table in
// Section 6 contrasts with P-Grid's O(log D)/O(log N).
package central

import (
	"fmt"
	"math/rand"
	"sync"

	"pgrid/internal/store"
)

// Service is a replicated central index.
type Service struct {
	mu       sync.RWMutex
	replicas int
	online   []bool
	index    map[string]store.Entry // name → entry
	// load[i] counts queries served by replica i.
	load []int64
}

// New creates a service with the given number of replicas, all online.
func New(replicas int) *Service {
	if replicas < 1 {
		panic(fmt.Sprintf("central: New(%d) needs at least one replica", replicas))
	}
	s := &Service{
		replicas: replicas,
		online:   make([]bool, replicas),
		index:    make(map[string]store.Entry),
		load:     make([]int64, replicas),
	}
	for i := range s.online {
		s.online[i] = true
	}
	return s
}

// Publish indexes an entry. Every replica stores every entry (full
// replication), so the per-replica storage is the full catalog size.
func (s *Service) Publish(e store.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.index[e.Name]
	if ok && old.Version >= e.Version {
		return
	}
	s.index[e.Name] = e
}

// Result reports one lookup.
type Result struct {
	Entry store.Entry
	Found bool
	// Messages is the client's message cost: 2 per attempted round trip
	// (request + response), attempts to offline replicas cost 1 (the
	// unanswered request).
	Messages int
}

// Lookup resolves a name against a random online replica, retrying offline
// replicas like a client with a replica list would.
func (s *Service) Lookup(rng *rand.Rand, name string) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res Result
	for _, i := range rng.Perm(s.replicas) {
		if !s.online[i] {
			res.Messages++ // request that never got answered
			continue
		}
		res.Messages += 2
		s.load[i]++
		e, ok := s.index[name]
		if ok {
			res.Entry = e
			res.Found = true
		}
		return res
	}
	return res
}

// StoragePerReplica returns the number of index entries each replica holds
// — O(D) by construction.
func (s *Service) StoragePerReplica() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// MaxLoad returns the busiest replica's query count — the bottleneck metric
// of the Section 6 table (server cost O(N) per time unit when each of N
// clients issues a constant number of queries).
func (s *Service) MaxLoad() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var max int64
	for _, l := range s.load {
		if l > max {
			max = l
		}
	}
	return max
}
