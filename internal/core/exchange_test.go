package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestExchangeCase1SplitsFreshPeers(t *testing.T) {
	d := directory.New(2)
	var m Metrics
	Exchange(d, DefaultConfig(), &m, nil, d.Peer(0), d.Peer(1), newRng(1))

	p0, p1 := d.Peer(0), d.Peer(1)
	if p0.Path() != "0" || p1.Path() != "1" {
		t.Fatalf("paths after split: %q, %q", p0.Path(), p1.Path())
	}
	if rs := p0.RefsAt(1); rs.Len() != 1 || !rs.Contains(1) {
		t.Errorf("peer 0 refs = %v", rs.String())
	}
	if rs := p1.RefsAt(1); rs.Len() != 1 || !rs.Contains(0) {
		t.Errorf("peer 1 refs = %v", rs.String())
	}
	if got := m.Exchanges.Load(); got != 1 {
		t.Errorf("exchanges = %d", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeCase1RespectsMaxl(t *testing.T) {
	d := directory.New(2)
	cfg := Config{MaxL: 1, RefMax: 1, RecMax: 0}
	var m Metrics
	rng := newRng(2)
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), rng)
	if d.Peer(0).Path() != "0" || d.Peer(1).Path() != "1" {
		t.Fatal("first split failed")
	}
	// Make both responsible for "0" and try to meet again: same path at
	// maxl must NOT split further; it records buddies instead.
	d2 := directory.New(2)
	d2.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	d2.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(0))
	Exchange(d2, cfg, &m, nil, d2.Peer(0), d2.Peer(1), rng)
	if d2.Peer(0).PathLen() != 1 || d2.Peer(1).PathLen() != 1 {
		t.Errorf("peers specialized beyond maxl: %q, %q", d2.Peer(0).Path(), d2.Peer(1).Path())
	}
	if !d2.Peer(0).Buddies().Contains(1) || !d2.Peer(1).Buddies().Contains(0) {
		t.Error("replicas at maxl did not record each other as buddies")
	}
}

func TestExchangeCase2ShorterPeerSpecializesOpposite(t *testing.T) {
	// a1 at "0", a2 at "01": common prefix "0", l1=0, l2=1.
	// a1 must extend opposite to a2's next bit (1) → "00".
	d := directory.New(3)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(2))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(2))
	d.Peer(1).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(2))
	d.Peer(2).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))

	var m Metrics
	Exchange(d, DefaultConfig(), &m, nil, d.Peer(0), d.Peer(1), newRng(3))

	if got := d.Peer(0).Path(); got != "00" {
		t.Fatalf("a1 path = %q, want 00", got)
	}
	if got := d.Peer(1).Path(); got != "01" {
		t.Fatalf("a2 path = %q (must not change)", got)
	}
	// a1 references a2 at level 2, a2 references a1 at level 2.
	if rs := d.Peer(0).RefsAt(2); !rs.Contains(1) {
		t.Errorf("a1 level-2 refs = %v", rs.String())
	}
	if rs := d.Peer(1).RefsAt(2); !rs.Contains(0) {
		t.Errorf("a2 level-2 refs = %v", rs.String())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeCase3MirrorsCase2(t *testing.T) {
	// a1 at "01", a2 at "0": a2 must extend to "00".
	d := directory.New(3)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(2))
	d.Peer(0).ExtendFrom(bitpath.MustParse("0"), 1, addr.Set{})
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(2))
	d.Peer(2).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))

	var m Metrics
	Exchange(d, DefaultConfig(), &m, nil, d.Peer(0), d.Peer(1), newRng(4))

	if got := d.Peer(1).Path(); got != "00" {
		t.Fatalf("a2 path = %q, want 00", got)
	}
	if got := d.Peer(0).Path(); got != "01" {
		t.Fatalf("a1 path = %q (must not change)", got)
	}
	if rs := d.Peer(1).RefsAt(2); !rs.Contains(0) {
		t.Errorf("a2 level-2 refs = %v, must reference a1", rs.String())
	}
	if rs := d.Peer(0).RefsAt(2); !rs.Contains(1) {
		t.Errorf("a1 level-2 refs = %v, must reference a2", rs.String())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeMixesRefsAtCommonLevel(t *testing.T) {
	// Two peers on path "0" each referencing a different peer on side "1".
	// After meeting, their level-1 reference pools are drawn from the union.
	d := directory.New(4)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(2))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(2).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	d.Peer(3).ExtendFrom(bitpath.Empty, 1, addr.NewSet(1))

	cfg := Config{MaxL: 2, RefMax: 2, RecMax: 0}
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), newRng(5))

	// Both split to level 2 (case 1) but their level-1 refs must now be
	// the union {2,3} (refmax=2 keeps both).
	for _, a := range []addr.Addr{0, 1} {
		rs := d.Peer(a).RefsAt(1)
		if rs.Len() != 2 || !rs.Contains(2) || !rs.Contains(3) {
			t.Errorf("peer %v level-1 refs = %v, want {2,3}", a, rs.String())
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeRefmaxBoundsRefSets(t *testing.T) {
	// Union of 4 distinct refs with refmax=2 must trim to 2.
	d := directory.New(6)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(2, 3))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(4, 5))
	for _, a := range []addr.Addr{2, 3, 4, 5} {
		d.Peer(a).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	}
	cfg := Config{MaxL: 1, RefMax: 2, RecMax: 0}
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), newRng(6))
	for _, a := range []addr.Addr{0, 1} {
		if got := d.Peer(a).RefsAt(1).Len(); got != 2 {
			t.Errorf("peer %v kept %d refs, want refmax=2", a, got)
		}
	}
}

func TestExchangeCase4RecursionSpecializesViaReferences(t *testing.T) {
	// a1="00", a2="01": diverge below common prefix "0" (l1,l2>0).
	// a1 references peer 2 ("01") at level 2; with recursion enabled, a2 is
	// forwarded to... peer 2, which has a2's own path — they're replicas at
	// maxl... use maxl=3 so the recursive meeting splits them deeper.
	d := directory.New(4)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(0).ExtendFrom(bitpath.MustParse("0"), 0, addr.NewSet(2))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(1).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	d.Peer(2).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(2).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	d.Peer(3).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))

	cfg := Config{MaxL: 3, RefMax: 2, RecMax: 1, RecFanout: 0}
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), newRng(7))

	if got := m.Exchanges.Load(); got < 2 {
		t.Fatalf("exchanges = %d, recursion did not fire", got)
	}
	// The recursive meeting of a2 (01) with peer 2 (01) is a case-1 split:
	// they must now sit at depth 3 on opposite sides.
	p1, p2 := d.Peer(1).Path(), d.Peer(2).Path()
	if p1.Len() != 3 || p2.Len() != 3 || p1 == p2 {
		t.Errorf("recursive split failed: %q, %q", p1, p2)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeRecmaxZeroNeverRecurses(t *testing.T) {
	d := directory.New(4)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(0).ExtendFrom(bitpath.MustParse("0"), 0, addr.NewSet(2))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(1).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	d.Peer(2).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(2).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	d.Peer(3).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))

	cfg := Config{MaxL: 6, RefMax: 2, RecMax: 0}
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), newRng(8))
	if got := m.Exchanges.Load(); got != 1 {
		t.Errorf("exchanges = %d, want exactly 1 with recmax=0", got)
	}
}

func TestExchangeSkipsOfflineRecursionTargets(t *testing.T) {
	d := directory.New(4)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(0).ExtendFrom(bitpath.MustParse("0"), 0, addr.NewSet(2))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(1).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	d.Peer(2).ExtendFrom(bitpath.Empty, 0, addr.NewSet(3))
	d.Peer(2).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	d.Peer(3).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	d.Peer(2).SetOnline(false)
	d.Peer(3).SetOnline(false)

	cfg := Config{MaxL: 6, RefMax: 2, RecMax: 2, RecFanout: 0}
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), newRng(9))
	if got := m.Exchanges.Load(); got != 1 {
		t.Errorf("exchanges = %d: recursed into offline peers", got)
	}
}

func TestExchangeRecFanoutBoundsRecursion(t *testing.T) {
	// a1 diverges from a2 and holds 4 refs at the diverging level; with
	// RecFanout=1 only one recursive exchange per side may fire.
	d := directory.New(7)
	// a1 = 0 → "00", refs level 2 = {2,3,4,5} all at "01".
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(6))
	d.Peer(0).ExtendFrom(bitpath.MustParse("0"), 0, addr.NewSet(2, 3, 4, 5))
	// a2 = 1 at "01" with no level-2 refs of its own.
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(6))
	d.Peer(1).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	for _, a := range []addr.Addr{2, 3, 4, 5} {
		d.Peer(a).ExtendFrom(bitpath.Empty, 0, addr.NewSet(6))
		d.Peer(a).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0))
	}
	d.Peer(6).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))

	cfg := Config{MaxL: 2, RefMax: 4, RecMax: 1, RecFanout: 1}
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), newRng(10))
	// 1 top-level + at most 1 recursive per side; a2 has only {0} at level
	// 2 (removed as the partner), so only a1's side can recurse: ≤ 2 total.
	if got := m.Exchanges.Load(); got != 2 {
		t.Errorf("exchanges = %d, want 2 with fanout 1", got)
	}
}

func TestExchangeMigratesDataOnSplit(t *testing.T) {
	d := directory.New(2)
	e0 := store.Entry{Key: bitpath.MustParse("00"), Name: "left", Holder: 0, Version: 1}
	e1 := store.Entry{Key: bitpath.MustParse("10"), Name: "right", Holder: 0, Version: 1}
	d.Peer(0).Store().Apply(e0)
	d.Peer(0).Store().Apply(e1)

	var m Metrics
	Exchange(d, DefaultConfig(), &m, nil, d.Peer(0), d.Peer(1), newRng(11))
	// Peer 0 took side "0": it keeps e0, hands e1 to peer 1 ("1").
	if _, ok := d.Peer(0).Store().Get(e0.Key, e0.Name); !ok {
		t.Error("peer 0 lost its own-side entry")
	}
	if _, ok := d.Peer(0).Store().Get(e1.Key, e1.Name); ok {
		t.Error("peer 0 kept an entry outside its region")
	}
	if _, ok := d.Peer(1).Store().Get(e1.Key, e1.Name); !ok {
		t.Error("peer 1 did not receive the migrated entry")
	}
}

func TestExchangeSelfAndNilAreNoOps(t *testing.T) {
	d := directory.New(2)
	var m Metrics
	Exchange(d, DefaultConfig(), &m, nil, d.Peer(0), d.Peer(0), newRng(12))
	Exchange(d, DefaultConfig(), &m, nil, nil, d.Peer(0), newRng(12))
	Exchange(d, DefaultConfig(), &m, nil, d.Peer(0), nil, newRng(12))
	if m.Exchanges.Load() != 0 {
		t.Errorf("no-op meetings counted: %d", m.Exchanges.Load())
	}
	if d.Peer(0).PathLen() != 0 {
		t.Error("no-op meeting mutated state")
	}
}

// TestExchangeRandomRunPreservesInvariants drives many random meetings and
// asserts the reference invariant continuously — the core safety property.
func TestExchangeRandomRunPreservesInvariants(t *testing.T) {
	rng := newRng(13)
	d := directory.New(40)
	cfg := Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}
	var m Metrics
	for i := 0; i < 3000; i++ {
		a1, a2 := d.RandomPair(rng)
		Exchange(d, cfg, &m, nil, a1, a2, rng)
		if i%100 == 0 {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("after %d meetings: %v", i, err)
			}
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if maxRefsPerLevel(d) > cfg.RefMax {
		t.Errorf("refmax exceeded: %d", maxRefsPerLevel(d))
	}
	for _, p := range d.All() {
		if p.PathLen() > cfg.MaxL {
			t.Errorf("peer %v exceeded maxl: %q", p.Addr(), p.Path())
		}
	}
}

// fakeSide is a MeetingSide with literal state: what DecideExchange reads
// of a peer, without a peer. RefsAt hands out the stored set itself, as
// peer.Editor does.
type fakeSide struct {
	addr addr.Addr
	path bitpath.Path
	refs map[int]addr.Set
}

func (s fakeSide) Addr() addr.Addr           { return s.addr }
func (s fakeSide) Path() bitpath.Path        { return s.path }
func (s fakeSide) RefsAt(level int) addr.Set { return s.refs[level] }

// describeSide renders the non-empty parts of a side decision, sets sorted.
func describeSide(s SideDecision) string {
	ints := func(set addr.Set) []int {
		out := []int{}
		for _, a := range set.Sorted() {
			out = append(out, int(a))
		}
		return out
	}
	out := ""
	for i, level := range s.Levels {
		if level > 0 {
			out += fmt.Sprintf("refs%d=%v ", level, ints(s.Refs[i]))
		}
	}
	if s.Extend {
		out += fmt.Sprintf("extend=%d%v ", s.ExtendBit, ints(s.ExtendRefs))
	}
	if s.Buddy != addr.Nil {
		out += fmt.Sprintf("buddy=%d ", s.Buddy)
	}
	if s.Forward.Len() > 0 {
		out += fmt.Sprintf("forward=%v ", ints(s.Forward))
	}
	return strings.TrimSpace(out)
}

// TestDecideExchange asserts the Fig. 3 decision itself, not peer state:
// a1 is address 1, a2 address 2; reference bounds are wide unless the row
// is about a bound, so every set in the decision is determined.
func TestDecideExchange(t *testing.T) {
	wide := Config{MaxL: 6, RefMax: 8, RecMax: 2}
	refs := func(level int, addrs ...addr.Addr) map[int]addr.Set {
		return map[int]addr.Set{level: addr.NewSet(addrs...)}
	}
	both := func(a, b map[int]addr.Set) map[int]addr.Set {
		for l, s := range b {
			a[l] = s
		}
		return a
	}
	tests := []struct {
		name         string
		p1, p2       bitpath.Path
		r1, r2       map[int]addr.Set
		cfg          Config
		depth        int
		noSplit      bool
		wantCase, lc int
		want1, want2 string
		fwd1, fwd2   int // when > 0: only the sizes of the forward sets are determined
	}{
		{name: "case 1, fresh peers", cfg: wide,
			wantCase: telemetry.ExCase1, want1: "extend=0[2]", want2: "extend=1[1]"},
		{name: "case 1 below a mixed common level", p1: "0", p2: "0", r1: refs(1, 5, 6), r2: refs(1, 6, 7), cfg: wide,
			wantCase: telemetry.ExCase1, lc: 1,
			want1: "refs1=[5 6 7] extend=0[2]", want2: "refs1=[5 6 7] extend=1[1]"},
		{name: "case 2, a1 shorter", p1: "0", p2: "01", r1: refs(1, 5), r2: both(refs(1, 6), refs(2, 7)), cfg: wide,
			wantCase: telemetry.ExCase2, lc: 1,
			want1: "refs1=[5 6] extend=0[2]", want2: "refs1=[5 6] refs2=[1 7]"},
		{name: "case 3, a2 shorter", p1: "10", p2: "1", r1: both(refs(1, 5), refs(2, 7)), r2: refs(1, 6), cfg: wide,
			wantCase: telemetry.ExCase3, lc: 1,
			want1: "refs1=[5 6] refs2=[2 7]", want2: "refs1=[5 6] extend=1[1]"},
		{name: "case 4, unbounded fan-out", p1: "00", p2: "01", r1: refs(2, 2, 8, 9), r2: refs(2, 1, 10), cfg: wide,
			wantCase: telemetry.ExCase4, lc: 1,
			want1: "refs1=[] forward=[10]", want2: "refs1=[] forward=[8 9]"},
		{name: "case 4, RecFanout bounds both sides", p1: "00", p2: "01", r1: refs(2, 2, 8, 9), r2: refs(2, 1, 10, 11, 12),
			cfg:      Config{MaxL: 6, RefMax: 8, RecMax: 2, RecFanout: 1},
			wantCase: telemetry.ExCase4, lc: 1, fwd1: 1, fwd2: 1},
		{name: "RecMax reached: references mix, nothing else", p1: "00", p2: "01", r1: both(refs(1, 5), refs(2, 8)), r2: refs(2, 10),
			cfg: wide, depth: 2,
			wantCase: telemetry.ExCaseNone, lc: 1, want1: "refs1=[5]", want2: "refs1=[5]"},
		{name: "replicas at MaxL", p1: "01", p2: "01", cfg: Config{MaxL: 2, RefMax: 8, RecMax: 2},
			wantCase: telemetry.ExCaseReplica, lc: 2,
			want1: "refs2=[] buddy=2", want2: "refs2=[] buddy=1"},
		{name: "MaxL reached: the shorter peer stays", p1: "0", p2: "01", cfg: Config{MaxL: 1, RefMax: 8, RecMax: 2},
			wantCase: telemetry.ExCaseNone, lc: 1, want1: "refs1=[]", want2: "refs1=[]"},
		{name: "splitOK=false: equal paths pair up as replicas", cfg: wide, noSplit: true,
			wantCase: telemetry.ExCaseReplica, want1: "buddy=2", want2: "buddy=1"},
		{name: "splitOK=false: the shorter peer stays", p1: "0", p2: "01", cfg: wide, noSplit: true,
			wantCase: telemetry.ExCaseNone, lc: 1, want1: "refs1=[]", want2: "refs1=[]"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a1 := fakeSide{1, tc.p1, tc.r1}
			a2 := fakeSide{2, tc.p2, tc.r2}
			before := fmt.Sprint(a1.refs, a2.refs)
			d := DecideExchange(a1, a2, tc.cfg, tc.depth, !tc.noSplit, newRng(1), NewExchangeScratch(tc.cfg, 0))
			if after := fmt.Sprint(a1.refs, a2.refs); after != before {
				t.Errorf("the decision wrote through a view: sides read %s, were %s", after, before)
			}
			if d.Case != tc.wantCase || d.CommonLen != tc.lc {
				t.Errorf("case %d at common length %d, want case %d at %d", d.Case, d.CommonLen, tc.wantCase, tc.lc)
			}
			if tc.fwd1 > 0 {
				f1, f2 := d.A1.Forward, d.A2.Forward
				if f1.Len() != tc.fwd1 || f2.Len() != tc.fwd2 {
					t.Errorf("forwards %v and %v, want %d and %d targets", f1, f2, tc.fwd1, tc.fwd2)
				}
				// a1 goes on to a2's references and a2 to a1's, never to each other.
				if a := f1.Slice()[0]; a == 1 || !a2.refs[2].Contains(a) {
					t.Errorf("a1 is forwarded to %v, not a level-2 reference of a2", a)
				}
				if a := f2.Slice()[0]; a == 2 || !a1.refs[2].Contains(a) {
					t.Errorf("a2 is forwarded to %v, not a level-2 reference of a1", a)
				}
				return
			}
			if got := describeSide(d.A1); got != tc.want1 {
				t.Errorf("a1: %q, want %q", got, tc.want1)
			}
			if got := describeSide(d.A2); got != tc.want2 {
				t.Errorf("a2: %q, want %q", got, tc.want2)
			}
		})
	}

	// RefMax bounds every set the decision installs.
	a1 := fakeSide{1, "0", refs(1, 5, 6, 7)}
	a2 := fakeSide{2, "01", both(refs(1, 7, 8, 9), refs(2, 10, 11, 12))}
	cfg := Config{MaxL: 6, RefMax: 2, RecMax: 2}
	d := DecideExchange(a1, a2, cfg, 0, true, newRng(2), NewExchangeScratch(cfg, 16))
	for _, s := range []addr.Set{d.A1.Refs[0], d.A2.Refs[0], d.A2.Refs[1]} {
		if s.Len() != 2 {
			t.Errorf("RefMax 2 left a set of %d: %v", s.Len(), s)
		}
	}
}

// maxRefsPerLevel returns the largest reference-set size at any level of
// any peer — never above refmax after construction.
func maxRefsPerLevel(d *directory.Directory) int {
	max := 0
	for _, p := range d.All() {
		for _, rs := range p.Snapshot().Refs {
			if rs.Len() > max {
				max = rs.Len()
			}
		}
	}
	return max
}
