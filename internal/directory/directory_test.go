package directory

import (
	"math"
	"math/rand"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

func TestNewAndLookup(t *testing.T) {
	d := New(5)
	if d.N() != 5 {
		t.Fatalf("N = %d", d.N())
	}
	for i := 0; i < 5; i++ {
		p := d.Peer(addr.Addr(i))
		if p == nil || p.Addr() != addr.Addr(i) {
			t.Fatalf("Peer(%d) = %v", i, p)
		}
	}
	if d.Peer(-1) != nil || d.Peer(5) != nil || d.Peer(addr.Nil) != nil {
		t.Error("out-of-range lookup must return nil")
	}
	if len(d.All()) != 5 {
		t.Errorf("All len = %d", len(d.All()))
	}
}

func TestOnlinePredicate(t *testing.T) {
	d := New(2)
	if !d.Online(0) {
		t.Error("fresh peer must be online")
	}
	d.Peer(0).SetOnline(false)
	if d.Online(0) {
		t.Error("offline peer reported online")
	}
	if d.Online(99) {
		t.Error("nonexistent peer reported online")
	}
}

func TestRandomPairDistinct(t *testing.T) {
	d := New(3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := d.RandomPair(rng)
		if a == b {
			t.Fatal("RandomPair returned identical peers")
		}
	}
}

func TestRandomPairUniform(t *testing.T) {
	// Every ordered pair of a 4-peer community should appear with roughly
	// equal frequency (chi-square style sanity bound).
	d := New(4)
	rng := rand.New(rand.NewSource(2))
	counts := map[[2]int]int{}
	n := 12000
	for i := 0; i < n; i++ {
		a, b := d.RandomPair(rng)
		counts[[2]int{int(a.Addr()), int(b.Addr())}]++
	}
	want := float64(n) / 12.0
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v count %d far from expected %.0f", pair, c, want)
		}
	}
}

func TestSampleOnline(t *testing.T) {
	d := New(2000)
	rng := rand.New(rand.NewSource(3))
	d.SampleOnline(rng, 0.3)
	got := d.OnlineCount()
	mean, sigma := 0.3*2000, math.Sqrt(2000*0.3*0.7)
	if math.Abs(float64(got)-mean) > 6*sigma {
		t.Errorf("OnlineCount = %d, expected about %.0f", got, mean)
	}
	d.SetAllOnline(true)
	if d.OnlineCount() != 2000 {
		t.Error("SetAllOnline(true) failed")
	}
	d.SampleOnline(rng, 0)
	if d.OnlineCount() != 0 {
		t.Error("SampleOnline(0) left peers online")
	}
}

func TestRandomOnlinePeer(t *testing.T) {
	d := New(4)
	rng := rand.New(rand.NewSource(4))
	d.SetAllOnline(false)
	if d.RandomOnlinePeer(rng) != nil {
		t.Error("RandomOnlinePeer with none online must return nil")
	}
	d.Peer(2).SetOnline(true)
	for i := 0; i < 10; i++ {
		p := d.RandomOnlinePeer(rng)
		if p == nil || p.Addr() != 2 {
			t.Fatalf("RandomOnlinePeer = %v", p)
		}
	}
}

// buildTinyGrid hand-constructs the 6-peer example grid of Fig. 1:
// peers 1,2 on path 00/01 (here addrs 0,1), etc. Layout:
//
//	addr 0: 00, addr 1: 01, addr 2: 10, addr 3: 10, addr 4: 11, addr 5: 11
func buildTinyGrid(t *testing.T) *Directory {
	t.Helper()
	d := New(6)
	specs := []struct {
		path string
		l1   []addr.Addr // refs at level 1 (other side of root)
		l2   []addr.Addr // refs at level 2
	}{
		{"00", []addr.Addr{2}, []addr.Addr{1}},
		{"01", []addr.Addr{3}, []addr.Addr{0}},
		{"10", []addr.Addr{0}, []addr.Addr{4}},
		{"10", []addr.Addr{1}, []addr.Addr{5}},
		{"11", []addr.Addr{0}, []addr.Addr{2}},
		{"11", []addr.Addr{1}, []addr.Addr{3}},
	}
	for i, s := range specs {
		p := d.Peer(addr.Addr(i))
		path := bitpath.MustParse(s.path)
		if !p.ExtendFrom(bitpath.Empty, path.Bit(1), addr.NewSet(s.l1...)) {
			t.Fatalf("extend 1 failed for %d", i)
		}
		if !p.ExtendFrom(path.Prefix(1), path.Bit(2), addr.NewSet(s.l2...)) {
			t.Fatalf("extend 2 failed for %d", i)
		}
	}
	d.Peer(2).AddBuddy(3)
	d.Peer(3).AddBuddy(2)
	return d
}

func TestCheckInvariantsOnValidGrid(t *testing.T) {
	d := buildTinyGrid(t)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("valid grid failed invariants: %v", err)
	}
}

func TestCheckInvariantsDetectsViolations(t *testing.T) {
	// Same-bit reference at level 1: addr 0 (path 00) referencing addr 1
	// (path 01) at level 1 — both start with 0.
	d := buildTinyGrid(t)
	d.Peer(0).SetRefsAt(1, addr.NewSet(1))
	if err := d.CheckInvariants(); err == nil {
		t.Error("same-bit reference not detected")
	}

	// Diverging prefix at level 2: addr 0 (path 00) referencing addr 4
	// (path 11) at level 2 — prefixes differ at bit 1.
	d = buildTinyGrid(t)
	d.Peer(0).SetRefsAt(2, addr.NewSet(4))
	if err := d.CheckInvariants(); err == nil {
		t.Error("diverging prefix not detected")
	}

	// Dangling reference.
	d = buildTinyGrid(t)
	d.Peer(0).SetRefsAt(1, addr.NewSet(77))
	if err := d.CheckInvariants(); err == nil {
		t.Error("dangling reference not detected")
	}

	// Dangling buddy.
	d = buildTinyGrid(t)
	d.Peer(0).AddBuddy(77)
	if err := d.CheckInvariants(); err == nil {
		t.Error("dangling buddy not detected")
	}
}

func TestReplicaGroupsAndResponsible(t *testing.T) {
	d := buildTinyGrid(t)
	groups := d.ReplicaGroups()
	if len(groups) != 4 {
		t.Fatalf("groups = %v", groups)
	}
	g10 := groups[bitpath.MustParse("10")]
	if len(g10) != 2 || g10[0] != 2 || g10[1] != 3 {
		t.Errorf("replicas of 10 = %v", g10)
	}
	if got := d.Replicas(bitpath.MustParse("00")); len(got) != 1 || got[0] != 0 {
		t.Errorf("Replicas(00) = %v", got)
	}
	resp := responsible(d, bitpath.MustParse("100"))
	if len(resp) != 2 {
		t.Errorf("Responsible(100) = %v", resp)
	}
	if got := responsible(d, bitpath.MustParse("0")); len(got) != 0 {
		t.Errorf("Responsible(0) = %v; no leaf path is a prefix of '0'", got)
	}
}

func TestAvgPathLenAndLengths(t *testing.T) {
	d := buildTinyGrid(t)
	if got := d.AvgPathLen(); got != 2 {
		t.Errorf("AvgPathLen = %v", got)
	}
	for _, l := range pathLengths(d) {
		if l != 2 {
			t.Errorf("path length = %d", l)
		}
	}
	empty := &Directory{}
	if empty.AvgPathLen() != 0 {
		t.Error("empty directory AvgPathLen must be 0")
	}
}

func TestReplace(t *testing.T) {
	d := buildTinyGrid(t)
	old := d.Peer(2)
	fresh := d.Replace(2)
	if fresh == old {
		t.Fatal("Replace returned the old peer")
	}
	if fresh.Addr() != 2 || fresh.PathLen() != 0 || !fresh.Online() {
		t.Errorf("replacement state wrong: %v", fresh)
	}
	if d.Peer(2) != fresh {
		t.Error("directory still resolves to the old peer")
	}
	// References held by others toward addr 2 now violate the invariant.
	if err := d.CheckInvariants(); err == nil {
		t.Error("replacement did not surface as an invariant violation")
	}
	defer func() {
		if recover() == nil {
			t.Error("Replace of unknown address must panic")
		}
	}()
	d.Replace(99)
}

func TestAddPeer(t *testing.T) {
	d := New(3)
	p := d.AddPeer()
	if d.N() != 4 || p.Addr() != 3 {
		t.Fatalf("N=%d addr=%v", d.N(), p.Addr())
	}
	if d.Peer(3) != p {
		t.Error("new peer not resolvable")
	}
	q := d.AddPeer()
	if q.Addr() != 4 {
		t.Errorf("second AddPeer addr = %v", q.Addr())
	}
}

func TestCoveringMatchesComparablePaths(t *testing.T) {
	d := buildTinyGrid(t)
	got := d.Covering(bitpath.MustParse("1"))
	// Key "1" is a prefix of paths 10,10,11,11 → addrs 2,3,4,5.
	if len(got) != 4 {
		t.Fatalf("Covering(1) = %v", got)
	}
	got = d.Covering(bitpath.MustParse("100"))
	if len(got) != 2 {
		t.Fatalf("Covering(100) = %v", got)
	}
}

func TestMaxRefsPerLevel(t *testing.T) {
	d := buildTinyGrid(t)
	if got := maxRefsPerLevel(d); got != 1 {
		t.Errorf("maxRefsPerLevel = %d", got)
	}
	d.Peer(0).SetRefsAt(1, addr.NewSet(2, 4, 5))
	if got := maxRefsPerLevel(d); got != 3 {
		t.Errorf("maxRefsPerLevel = %d", got)
	}
}

// pathLengths returns every peer's current path length.
func pathLengths(d *Directory) []int {
	out := make([]int, len(d.peers))
	for i, p := range d.peers {
		out[i] = p.PathLen()
	}
	return out
}

// responsible returns the addresses of all peers responsible for key: peers
// whose path is a prefix of key.
func responsible(d *Directory, key bitpath.Path) []addr.Addr {
	var out []addr.Addr
	for _, p := range d.peers {
		if key.HasPrefix(p.Path()) {
			out = append(out, p.Addr())
		}
	}
	return out
}

// maxRefsPerLevel returns the largest reference-set size at any level of
// any peer — never above refmax after construction.
func maxRefsPerLevel(d *Directory) int {
	max := 0
	for _, p := range d.peers {
		for _, rs := range p.Snapshot().Refs {
			if rs.Len() > max {
				max = rs.Len()
			}
		}
	}
	return max
}

// Replicas returns the addresses of all peers whose path equals path.
func (d *Directory) Replicas(path bitpath.Path) []addr.Addr {
	var out []addr.Addr
	for _, p := range d.peers {
		if p.Path() == path {
			out = append(out, p.Addr())
		}
	}
	return out
}
