package core

import (
	"math/rand"

	"pgrid/internal/directory"
	"pgrid/internal/peer"
)

// This file implements incremental membership, the dynamic side of the
// paper's model that the evaluation only exercises implicitly ("the
// distribution of one copy of a search tree over multiple, distributed
// nodes … a growing number of processors"). A newcomer needs no global
// knowledge: it starts with the empty path and gossips with random online
// peers; the ordinary exchange cases specialize it level by level (case 2
// whenever it meets anyone deeper) until it reaches the grid's depth. The
// same randomized machinery that builds the grid integrates members into
// it — there is no separate join protocol to get wrong.

// JoinResult reports one peer's integration.
type JoinResult struct {
	// Meetings is the number of bootstrap meetings the newcomer initiated.
	Meetings int
	// Exchanges is the total exchange calls those meetings triggered
	// (including recursion) — the join cost in the paper's e metric.
	Exchanges int64
	// Depth is the newcomer's final path length.
	Depth int
	// Settled reports whether the newcomer reached the target depth.
	Settled bool
}

// Join integrates newcomer into an established community: it repeatedly
// meets random online peers and runs the exchange until its path reaches
// targetDepth (usually cfg.MaxL) or maxMeetings is exhausted.
func Join(d *directory.Directory, cfg Config, m *Metrics, newcomer *peer.Peer, targetDepth, maxMeetings int, rng *rand.Rand) JoinResult {
	var res JoinResult
	before := m.Exchanges.Load()
	sc := NewExchangeScratch(cfg, d.N())
	for res.Meetings < maxMeetings && newcomer.PathLen() < targetDepth {
		other := d.RandomOnlinePeer(rng)
		if other == nil {
			break
		}
		if other == newcomer {
			if d.OnlineCount() <= 1 {
				break // nobody to meet
			}
			continue
		}
		res.Meetings++
		Exchange(d, cfg, m, sc, newcomer, other, rng)
	}
	res.Exchanges = m.Exchanges.Load() - before
	res.Depth = newcomer.PathLen()
	res.Settled = res.Depth >= targetDepth
	return res
}

// Grow adds count fresh peers to the community one at a time, joining each
// before the next arrives, and returns their join results. This is the
// incremental-growth experiment: per-join cost should stay flat as the
// community grows, because a join is O(depth) targeted meetings, not a
// global rebuild.
func Grow(d *directory.Directory, cfg Config, m *Metrics, count, maxMeetingsPerJoin int, rng *rand.Rand) []JoinResult {
	out := make([]JoinResult, 0, count)
	for i := 0; i < count; i++ {
		p := d.AddPeer()
		out = append(out, Join(d, cfg, m, p, cfg.MaxL, maxMeetingsPerJoin, rng))
	}
	return out
}
