package node

import (
	"math/rand"
	"sync"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/wire"
)

// EnableHealth attaches a liveness tracker to the node (idempotent) and
// returns it. Call before the node starts serving; the field is not
// synchronized. Without a tracker the node still answers the health column
// with a structural digest, just without probe data.
func (n *Node) EnableHealth() *health.Tracker {
	if n.htr == nil {
		n.htr = health.NewTracker()
	}
	return n.htr
}

// HealthTracker returns the attached tracker (possibly nil).
func (n *Node) HealthTracker() *health.Tracker { return n.htr }

// Digest returns the node's current replica digest, including whatever
// probe data the tracker has accumulated.
func (n *Node) Digest() health.Digest {
	return health.Of(n.self, n.htr.Snapshot())
}

// probeRef is the one way a background round looks at a reference: fetch
// the peer's Info and hold it against the Sec. 2 property
// (repair.ValidRef) for the given level of a node whose path is path. The
// outcome lands in the health tracker and the per-level liveness counters.
// info is nil when the peer did not answer; a peer that answered without
// an Info payload is counted malformed and treated the same. The repairer
// also probes refill candidates through here — a live reference's buddy is
// a peer of the same complementary subtree, sampled for the same liveness.
func (n *Node) probeRef(path bitpath.Path, level int, to addr.Addr) (info *wire.InfoResp, valid bool) {
	resp, err := n.tr.Call(to, &wire.Message{Kind: wire.KindInfo, From: n.Addr()})
	if err == nil {
		if info = resp.InfoResp; info == nil {
			rpcKind(n.tel, wire.KindInfo).Malformed()
		}
	}
	valid = info != nil && repair.ValidRef(path, level, info.Path)
	n.htr.Observe(level, valid)
	n.tel.RefLiveness(level, valid)
	return info, valid
}

// probeRoundDone closes one round of probeRef calls: it bumps the
// tracker's round count and pushes the node's current digest into the
// telemetry gauges (skipped without instruments), so /metrics tracks the
// live structure.
func (n *Node) probeRoundDone() {
	n.htr.RoundDone()
	if n.tel == nil {
		return
	}
	probes := n.htr.Snapshot()
	s := n.self.Snapshot()
	perm := func(r float64, ok bool) int64 {
		if !ok {
			return -1
		}
		return int64(r*1000 + 0.5)
	}
	overall, overallOK := health.OverallRatio(probes)
	worst, worstOK := health.MinLevelRatio(probes)
	n.tel.ObserveHealth(s.Path.Len(), n.Store().Len(), s.Buddies.Len(),
		perm(overall, overallOK), perm(worst, worstOK), n.htr.Rounds())
}

// Prober is the one-shot reference-liveness sampler behind
// `pgridsim -health`, the analysis package and the soak tests: a Tick pings
// up to budget referenced peers, spread across the node's levels, and
// records per-level live/dead tallies in the health tracker. It never
// mutates the reference table — it only measures, which is what makes its
// numbers comparable across nodes. A running pgridnode gets the same
// tallies from its repair rounds (Repairer), which probe through the same
// primitive.
type Prober struct {
	node   *Node
	budget int

	mu  sync.Mutex
	rng *rand.Rand
}

// NewProber returns a prober for n spending at most budget probe messages
// per Tick. It attaches a health tracker to the node if none is present,
// and panics on a non-positive budget.
func NewProber(n *Node, budget int, seed int64) *Prober {
	if budget <= 0 {
		panic("node: NewProber with non-positive budget")
	}
	n.EnableHealth()
	return &Prober{node: n, budget: budget, rng: rand.New(rand.NewSource(seed))}
}

// Tick runs one probe round. An offline node skips its turn.
func (p *Prober) Tick() {
	n := p.node
	if !n.Online() {
		return
	}
	type cand struct {
		level int
		to    addr.Addr
	}
	path := n.self.Path()
	perLevel := make([][]cand, 0, path.Len())
	for level := 1; level <= path.Len(); level++ {
		refs := n.self.RefsAt(level).Slice()
		p.mu.Lock()
		p.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
		p.mu.Unlock()
		cs := make([]cand, len(refs))
		for i, r := range refs {
			cs[i] = cand{level: level, to: r}
		}
		perLevel = append(perLevel, cs)
	}

	// Interleave levels so a small budget still samples the whole spine
	// rather than exhausting level 1 first.
	var picks []cand
	for round := 0; len(picks) < p.budget; round++ {
		took := false
		for _, cs := range perLevel {
			if round < len(cs) && len(picks) < p.budget {
				picks = append(picks, cs[round])
				took = true
			}
		}
		if !took {
			break
		}
	}

	for _, c := range picks {
		n.probeRef(path, c.level, c.to)
	}
	n.probeRoundDone()
}
