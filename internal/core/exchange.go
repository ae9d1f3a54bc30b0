package core

import (
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/telemetry"
)

// MeetingSide is what the Fig. 3 decision reads of one peer. peer.Editor
// satisfies it; the node wraps the initiator's wire snapshot in one.
// RefsAt returns a read-only view, empty beyond the path, that need only
// stay as it is until the decision is applied: DecideExchange never writes
// through it and keeps nothing of it.
type MeetingSide interface {
	Addr() addr.Addr
	Path() bitpath.Path
	RefsAt(level int) addr.Set
}

// ExchangeScratch is the memory one meeting's decision is built in: six
// address buffers of 2·RefMax+1 each (two full levels pooled, or one level
// and the other peer) cut from one allocation, and the marks that pool two
// levels in one pass. It has one owner — an engine loop, a worker, a request
// handler — and no lock. A decision's sets live in it, so they are gone when
// the owner decides its next meeting; what must outlast that (a forward list
// while the recursion runs, a reply on the wire) is copied out first. A
// level longer than RefMax still decides correctly: the buffer it overflows
// grows on the heap for that meeting.
type ExchangeScratch struct {
	common     []addr.Addr  // the pooled common level, then the case-2/3 pool
	sub1, sub2 []addr.Addr  // each side's subset of the common level
	spec       []addr.Addr  // the case-2/3 subset for the longer path
	fwd1, fwd2 []addr.Addr  // case 4: whom a2 and a1 go on to meet
	ext1, ext2 [1]addr.Addr // the reference a side extends with
	marks      addr.Marks
}

// NewExchangeScratch returns a scratch sized for cfg. dense is the owner's
// word that addresses below it are worth a mark each (addr.Marks): the size
// of a directory, 0 for a node, whose peers' addresses are whatever the
// network says. The decisions are the same for any value.
func NewExchangeScratch(cfg Config, dense int) *ExchangeScratch {
	n := 2*cfg.RefMax + 1
	all := make([]addr.Addr, 6*n)
	cut := func(i int) []addr.Addr { return all[i*n : i*n : (i+1)*n] }
	return &ExchangeScratch{common: cut(0), sub1: cut(1), sub2: cut(2), spec: cut(3), fwd1: cut(4), fwd2: cut(5),
		marks: addr.NewMarks(dense)}
}

// SideDecision is what one meeting changes at one of its two peers. Apply
// installs it; the driver acts on Forward. Its sets live in the scratch
// the decision was built in.
type SideDecision struct {
	// Refs[i] replaces the references at 1-based level Levels[i] (0: slot
	// unused) — at most the common level and the one below it. A set may
	// name the side itself: peer.Editor drops a self-reference on install.
	Levels [2]int
	Refs   [2]addr.Set
	// Extend appends ExtendBit to the path, with ExtendRefs at the new
	// level (cases 1–3).
	Extend     bool
	ExtendBit  byte
	ExtendRefs addr.Set
	// Buddy is the other peer when the two are replicas of one region,
	// addr.Nil otherwise.
	Buddy addr.Addr
	// Forward lists whom this side goes on to meet at depth+1 (case 4).
	Forward addr.Set
}

// ExchangeDecision is the outcome of one meeting for both peers, with the
// case taken (a telemetry.ExCase* code) and the common-prefix length.
type ExchangeDecision struct {
	Case      int
	CommonLen int
	A1, A2    SideDecision
}

// DecideExchange is the Fig. 3 decision for a meeting of a1 and a2 at
// recursion depth `depth`, free of locks, I/O and telemetry: the simulator
// (exchange) and the networked node (node.handleExchange) both take it
// from here and only apply it. splitOK is the driver's verdict on the
// data-aware split gate of Section 3; when false, no path grows.
//
// Draw order from rng: the common-level subset for a1, then a2; one subset
// in cases 2 and 3; in case 4 the forwards out of a1's references, then out
// of a2's. Every subset is a full shuffle of the set it is drawn from.
//
// The decision's sets are built in sc and stay valid until sc decides again.
func DecideExchange(a1, a2 MeetingSide, cfg Config, depth int, splitOK bool, rng *rand.Rand, sc *ExchangeScratch) ExchangeDecision {
	p1, p2 := a1.Path(), a2.Path()
	lc := bitpath.CommonPrefixLen(p1, p2)
	d := ExchangeDecision{Case: telemetry.ExCaseNone, CommonLen: lc}
	d.A1.Buddy, d.A2.Buddy = addr.Nil, addr.Nil

	// Mix references at the deepest level where the paths agree. Any
	// reference either peer holds at level lc is valid for both (it agrees
	// with the shared prefix of length lc-1 and differs at bit lc), so they
	// pool them and each keeps a random refmax-subset.
	if lc > 0 {
		common := sc.marks.UnionInto(sc.common, a1.RefsAt(lc), a2.RefsAt(lc))
		d.A1.Levels[0], d.A1.Refs[0] = lc, common.RandomSubsetInto(sc.sub1, rng, cfg.RefMax)
		d.A2.Levels[0], d.A2.Refs[0] = lc, common.RandomSubsetInto(sc.sub2, rng, cfg.RefMax)
	}

	l1 := p1.Len() - lc
	l2 := p2.Len() - lc
	canSplit := lc < cfg.MaxL && splitOK
	switch {
	case l1 == 0 && l2 == 0 && canSplit:
		// Case 1: identical paths with room to grow — introduce a new
		// level. The peers split the interval and reference each other.
		d.Case = telemetry.ExCase1
		d.A1.extend(0, a2.Addr(), &sc.ext1)
		d.A2.extend(1, a1.Addr(), &sc.ext2)

	case l1 == 0 && l2 > 0 && canSplit:
		// Case 2: a1's path is a proper prefix of a2's.
		d.Case = telemetry.ExCase2
		specialize(a1, a2, &d.A1, &d.A2, lc, cfg, rng, sc)

	case l1 > 0 && l2 == 0 && canSplit:
		// Case 3: mirror image of case 2.
		d.Case = telemetry.ExCase3
		specialize(a2, a1, &d.A2, &d.A1, lc, cfg, rng, sc)

	case l1 > 0 && l2 > 0 && depth < cfg.RecMax:
		// Case 4: the paths diverge below the common prefix. Neither peer
		// can specialize against the other, but each can forward the other
		// to peers it references at level lc+1 — those share one more bit
		// with the forwarded peer, so the recursive meeting is more likely
		// to specialize.
		d.Case = telemetry.ExCase4
		refs1 := a1.RefsAt(lc + 1).CloneInto(sc.fwd1)
		refs1.Remove(a2.Addr())
		refs2 := a2.RefsAt(lc + 1).CloneInto(sc.fwd2)
		refs2.Remove(a1.Addr())
		if cfg.RecFanout > 0 {
			// Each list is the scratch's own copy: the subset is drawn in place.
			refs1 = refs1.RandomSubsetInto(sc.fwd1, rng, cfg.RecFanout)
			refs2 = refs2.RandomSubsetInto(sc.fwd2, rng, cfg.RecFanout)
		}
		d.A2.Forward = refs1
		d.A1.Forward = refs2

	case l1 == 0 && l2 == 0:
		// Identical paths that cannot (or should not) split further: the
		// peers are replicas of the same region. The paper's update
		// strategies rely on buddy lists "identified throughout index
		// construction"; this is where replicas identify each other.
		d.Case = telemetry.ExCaseReplica
		d.A1.Buddy = a2.Addr()
		d.A2.Buddy = a1.Addr()
	}
	return d
}

// extend makes the side specialize by bit b, referencing the other peer at
// the new level; the one-address set is built in buf.
func (s *SideDecision) extend(b byte, other addr.Addr, buf *[1]addr.Addr) {
	s.Extend, s.ExtendBit, s.ExtendRefs = true, b, single(buf, other)
}

// single is addr.NewSet(a) built in buf.
func single(buf *[1]addr.Addr, a addr.Addr) addr.Set {
	s := addr.Set{}.CloneInto(buf[:])
	s.Add(a)
	return s
}

// specialize decides cases 2 and 3: short, whose path is a proper prefix of
// long's, extends opposite to long's next bit, keeping the grid balanced;
// long adds short to its references at that level.
func specialize(short, long MeetingSide, ds, dl *SideDecision, lc int, cfg Config, rng *rand.Rand, sc *ExchangeScratch) {
	ds.extend(1-long.Path().Bit(lc+1), long.Addr(), &sc.ext1)
	// The common-level subsets are drawn: sc.common is free to pool again.
	refs := sc.marks.UnionInto(sc.common, single(&sc.ext2, short.Addr()), long.RefsAt(lc+1))
	dl.Levels[1], dl.Refs[1] = lc+1, refs.RandomSubsetInto(sc.spec, rng, cfg.RefMax)
}

// Apply installs the decision on its side. Levels must lie within the
// path: true of the state DecideExchange read, checked by a driver that
// got the decision over the network.
func (s *SideDecision) Apply(e peer.Editor) {
	for i, level := range s.Levels {
		if level > 0 {
			e.SetRefsAt(level, s.Refs[i])
		}
	}
	if s.Extend {
		e.Extend(s.ExtendBit, s.ExtendRefs)
	}
	e.AddBuddy(s.Buddy) // addr.Nil is no buddy: the set ignores it
}

// Exchange executes the P-Grid construction algorithm of Fig. 3 for a
// meeting of peers a1 and a2. Both peers' state may change: reference sets
// at the common level are mixed, paths may specialize (cases 1–3), and the
// meeting may recursively trigger exchanges with referenced peers (case 4),
// bounded by cfg.RecMax and cfg.RecFanout.
//
// Every invocation, including recursive ones, increments m.Exchanges — the
// construction-cost metric e of Section 5.1.
//
// sc is the caller's scratch for cfg, reused from meeting to meeting by the
// one goroutine that owns it (with it a meeting between peers whose
// reference sets are full allocates nothing); nil makes one for this
// meeting.
func Exchange(d *directory.Directory, cfg Config, m *Metrics, sc *ExchangeScratch, a1, a2 *peer.Peer, rng *rand.Rand) {
	if sc == nil {
		sc = NewExchangeScratch(cfg, 0)
	}
	exchange(d, cfg, m, sc, a1, a2, 0, rng)
}

// forwardInline is how many forward targets per side a meeting keeps on its
// stack frame while the recursion reuses the scratch: RecFanout is 2 in
// every experiment, and a longer list (RecFanout 0 asks for the whole
// level) goes to the heap.
const forwardInline = 4

// exchange is the simulator's driver of DecideExchange: both peers are
// decided and changed under one pair lock; data handover, replica
// reconciliation and the case-4 recursion follow outside it.
func exchange(d *directory.Directory, cfg Config, m *Metrics, sc *ExchangeScratch, a1, a2 *peer.Peer, r int, rng *rand.Rand) {
	if a1 == nil || a2 == nil || a1 == a2 {
		return
	}
	m.Exchanges.Add(1)

	// Data-aware split gate (Section 3's threshold suggestion): count the
	// items the two peers index under their regions before taking locks;
	// stores are independently synchronized, and a slightly stale count
	// only delays or hastens one split.
	splitOK := true
	if cfg.SplitMinItems > 0 {
		splitOK = a1.Store().Len()+a2.Store().Len() >= cfg.SplitMinItems
	}

	var dec ExchangeDecision
	var p1, p2 bitpath.Path // the paths as the decision left them
	// The views the decision reads and the scratch sets it installs are both
	// good for exactly as long as the pair lock is held.
	peer.EditPair(a1, a2, func(e1, e2 peer.Editor) {
		dec = DecideExchange(e1, e2, cfg, r, splitOK, rng, sc)
		dec.A1.Apply(e1)
		dec.A2.Apply(e2)
		p1, p2 = e1.Path(), e2.Path()
	})

	// Every exchange is counted; the event is the meeting's, so only the
	// top-level exchange emits it.
	m.Tel.ExchangeCase(dec.Case)
	if r == 0 && m.Tel.EventsOn() {
		m.Tel.EmitExchange(telemetry.ExchangeCaseName(dec.Case),
			dec.CommonLen, r, int(a1.Addr()), int(a2.Addr()))
	}

	// Replicas reconcile their indexes when they meet (anti-entropy):
	// both end up with the freshest version of every entry either knew.
	// This is how replica indexes converge without explicit updates.
	if dec.Case == telemetry.ExCaseReplica {
		for _, e := range a1.Store().Entries() {
			a2.Store().Apply(e)
		}
		for _, e := range a2.Store().Entries() {
			a1.Store().Apply(e)
		}
	}

	// Hand over data items that fell outside a narrowed responsibility.
	// Best-effort, like a real network: the partner covers the vacated
	// region at the common level (it may itself be deeper; entries then
	// migrate onward during its own future splits or via explicit inserts).
	if dec.A1.Extend {
		handOver(a1, a2, p1)
	}
	if dec.A2.Extend {
		handOver(a2, a1, p2)
	}

	// Recursive exchanges run outside any peer lock; a forwarded peer may
	// have moved on concurrently, which is fine — the recursive exchange
	// will just see its new state. They decide in the same scratch, so the
	// two forward lists leave it first.
	var to2, to1 [forwardInline]addr.Addr
	targets2, targets1 := dec.A2.Forward.AppendTo(to2[:0]), dec.A1.Forward.AppendTo(to1[:0])
	forward(d, cfg, m, sc, a2, targets2, r, rng)
	forward(d, cfg, m, sc, a1, targets1, r, rng)
}

// handOver moves the entries outside from's narrowed path keep to its partner.
func handOver(from, to *peer.Peer, keep bitpath.Path) {
	for _, entry := range from.Store().Evict(keep) {
		to.Store().Apply(entry)
	}
}

// forward runs fwd's share of the case-4 recursion: a meeting at depth r+1
// with every online peer in targets.
func forward(d *directory.Directory, cfg Config, m *Metrics, sc *ExchangeScratch, fwd *peer.Peer, targets []addr.Addr, r int, rng *rand.Rand) {
	for _, to := range targets {
		q := d.Peer(to)
		if q != nil && q.Online() {
			exchange(d, cfg, m, sc, fwd, q, r+1, rng)
		}
	}
}
