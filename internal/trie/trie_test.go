package trie

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
)

func TestFromDirectorySnapshots(t *testing.T) {
	d := directory.New(4)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	d.Peer(1).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	d.Peer(2).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	// peer 3 stays at the root
	tr := FromDirectory(d)
	if got := tr.Replicas(bitpath.MustParse("0")); len(got) != 2 {
		t.Errorf("Replicas(0) = %v", got)
	}
	if got := tr.Replicas(bitpath.Empty); len(got) != 1 || got[0] != 3 {
		t.Errorf("Replicas(ε) = %v", got)
	}
	if tr.MaxDepth() != 1 {
		t.Errorf("MaxDepth = %d", tr.MaxDepth())
	}
	paths := tr.Paths()
	if len(paths) != 3 || paths[0] != bitpath.Empty {
		t.Errorf("Paths = %v", paths)
	}
}

func TestCoveringIncludesPrefixAndExtension(t *testing.T) {
	d := directory.New(3)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1)) // path 0
	d.Peer(1).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0)) // path 1
	d.Peer(2).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	d.Peer(2).ExtendFrom(bitpath.MustParse("0"), 1, addr.NewSet(0)) // path 01
	tr := FromDirectory(d)
	got := tr.Covering(bitpath.MustParse("01"))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Covering(01) = %v", got)
	}
	got = tr.Covering(bitpath.MustParse("0"))
	if len(got) != 2 {
		t.Errorf("Covering(0) = %v (peer 0 and the deeper peer 2)", got)
	}
}

func TestCheckCoverage(t *testing.T) {
	d := directory.New(2)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	d.Peer(1).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	tr := FromDirectory(d)
	if err := tr.CheckCoverage(3); err != nil {
		t.Errorf("full cover reported hole: %v", err)
	}
	// Remove the 1-side: now keys under 1 are uncovered.
	d2 := directory.New(2)
	d2.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	d2.Peer(1).ExtendFrom(bitpath.Empty, 0, addr.NewSet(0))
	if err := FromDirectory(d2).CheckCoverage(2); err == nil {
		t.Error("coverage hole not detected")
	}
}

func TestCheckPrefixFree(t *testing.T) {
	d := directory.New(2)
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1))
	d.Peer(1).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	if err := FromDirectory(d).CheckPrefixFree(); err != nil {
		t.Errorf("prefix-free grid flagged: %v", err)
	}
	d.Peer(1).ExtendFrom(bitpath.MustParse("1"), 0, addr.NewSet(0))
	d2 := directory.New(1) // peer at root
	_ = d2
	d3 := directory.New(2)
	d3.Peer(0).ExtendFrom(bitpath.Empty, 1, addr.NewSet(1))
	d3.Peer(1).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0))
	d3.Peer(1).ExtendFrom(bitpath.MustParse("1"), 0, addr.NewSet(0))
	if err := FromDirectory(d3).CheckPrefixFree(); err == nil {
		t.Error("proper prefix not detected")
	}
}

func TestBuildIdealStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := BuildIdeal(64, 3, 2, rng)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("ideal grid violates invariants: %v", err)
	}
	tr := FromDirectory(d)
	if err := tr.CheckCoverage(3); err != nil {
		t.Fatalf("ideal grid has coverage holes: %v", err)
	}
	if err := tr.CheckPrefixFree(); err != nil {
		t.Fatalf("ideal grid not prefix-free: %v", err)
	}
	counts := tr.ReplicaCounts()
	if len(counts) != 8 {
		t.Fatalf("expected 8 leaves, got %d", len(counts))
	}
	for p, c := range counts {
		if c != 8 {
			t.Errorf("leaf %s has %d replicas, want 8", p, c)
		}
	}
	// Every peer has exactly refmax refs per level (sibling subtrees hold
	// 32, 16, 8 peers — all ≥ refmax).
	for _, p := range d.All() {
		for l := 1; l <= 3; l++ {
			if got := p.RefsAt(l).Len(); got != 2 {
				t.Fatalf("peer %v level %d has %d refs, want 2", p.Addr(), l, got)
			}
		}
		if got := p.Buddies().Len(); got != 7 {
			t.Fatalf("peer %v has %d buddies, want 7", p.Addr(), got)
		}
	}
}

func TestBuildIdealUnevenReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 10 peers over 4 leaves: groups of 3,3,2,2.
	d := BuildIdeal(10, 2, 5, rng)
	tr := FromDirectory(d)
	total := 0
	for _, c := range tr.ReplicaCounts() {
		if c < 2 || c > 3 {
			t.Errorf("replica count %d out of balance", c)
		}
		total += c
	}
	if total != 10 {
		t.Errorf("total peers in groups = %d", total)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIdealDeterministicForSeed(t *testing.T) {
	// Regression: reference candidate lists were once assembled in map
	// iteration order, making "ideal" grids differ across runs of the
	// same seed and flaking every downstream experiment.
	build := func() *directory.Directory {
		return BuildIdeal(96, 3, 3, rand.New(rand.NewSource(42)))
	}
	a, b := build(), build()
	for i := 0; i < 96; i++ {
		pa, pb := a.Peer(addr.Addr(i)), b.Peer(addr.Addr(i))
		if pa.Path() != pb.Path() {
			t.Fatalf("peer %d path %q vs %q", i, pa.Path(), pb.Path())
		}
		for l := 1; l <= 3; l++ {
			ra, rb := pa.RefsAt(l).Sorted(), pb.RefsAt(l).Sorted()
			if len(ra) != len(rb) {
				t.Fatalf("peer %d level %d ref counts differ", i, l)
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("peer %d level %d refs %v vs %v", i, l, ra, rb)
				}
			}
		}
	}
}

func TestBuildIdealPanicsWhenTooFewPeers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildIdeal(3, 2, 1, rand.New(rand.NewSource(3)))
}

// CheckCoverage verifies that the occupied regions cover the whole key
// space at resolution depth: every depth-bit key must have at least one
// covering peer. It returns the first uncovered key, if any.
func (t *Trie) CheckCoverage(depth int) error {
	for v := uint64(0); v < 1<<depth; v++ {
		key := bitpath.FromUint(v, depth)
		covered := false
		for p := range t.byPath {
			if key.HasPrefix(p) || p.HasPrefix(key) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("trie: key %s has no covering peer", key)
		}
	}
	return nil
}

// CheckPrefixFree verifies the converse structural property of a fully
// converged grid: no occupied path is a proper prefix of another (peers
// stopped at different depths mean the grid is still converging — legal,
// but worth asserting against in fixture tests).
func (t *Trie) CheckPrefixFree() error {
	paths := t.Paths()
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if paths[j].HasPrefix(paths[i]) && paths[i] != paths[j] {
				return fmt.Errorf("trie: path %s is a proper prefix of %s", paths[i], paths[j])
			}
		}
	}
	return nil
}

// Paths returns every occupied path in val order.
func (t *Trie) Paths() []bitpath.Path {
	out := make([]bitpath.Path, 0, len(t.byPath))
	for p := range t.byPath {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return bitpath.Compare(out[i], out[j]) < 0 })
	return out
}

// Replicas returns the peers responsible for exactly path.
func (t *Trie) Replicas(path bitpath.Path) []addr.Addr {
	return append([]addr.Addr(nil), t.byPath[path]...)
}

// Covering returns the peers whose region is in a prefix relationship with
// key — the ground-truth replica group the update experiments measure
// against.
func (t *Trie) Covering(key bitpath.Path) []addr.Addr {
	var out []addr.Addr
	for p, g := range t.byPath {
		if bitpath.Comparable(p, key) {
			out = append(out, g...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxDepth returns the deepest occupied path length.
func (t *Trie) MaxDepth() int {
	depth := 0
	for p := range t.byPath {
		depth = max(depth, p.Len())
	}
	return depth
}
