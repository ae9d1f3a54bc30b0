package node

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// builtCluster returns a converged in-process cluster plus a client.
func builtCluster(t *testing.T, n int, cfg core.Config, seed int64) (*Cluster, *Client) {
	t.Helper()
	c := NewCluster(n, cfg, seed)
	rng := rand.New(rand.NewSource(seed))
	buildCluster(t, c, 0.99*float64(cfg.MaxL), 80000, rng)
	return c, NewClient(c.Transport, seed+100)
}

func TestClientReplicaSearchFindsCoveringPeers(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 1)
	key := bitpath.MustParse("101")
	res := cl.ReplicaSearch(c.Nodes[0].Addr(), key, 3)
	if len(res.Found) == 0 {
		t.Fatal("found nothing")
	}
	for _, a := range res.Found {
		var n *Node
		for _, cand := range c.Nodes {
			if cand.Addr() == a {
				n = cand
			}
		}
		if !bitpath.Comparable(n.Path(), key) {
			t.Errorf("non-covering peer %v (path %q)", a, n.Path())
		}
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}
}

func TestClientPublishAndLookup(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 2)
	e := store.Entry{Key: bitpath.MustParse("0110"), Name: "f", Holder: 3, Version: 1}
	entries := []addr.Addr{c.Nodes[1].Addr(), c.Nodes[50].Addr()}
	replicas, msgs := cl.Publish(entries, e, 3, 2)
	if replicas == 0 || msgs == 0 {
		t.Fatalf("publish: replicas=%d msgs=%d", replicas, msgs)
	}
	res := cl.Lookup(c.Nodes[9].Addr(), e.Key, "f")
	if !res.Found {
		// A single read may land on a missed replica; a majority read
		// must recover.
		res = cl.MajorityRead(entries, e.Key, "f", 2, 32)
	}
	if !res.Found || res.Entry.Holder != 3 {
		t.Fatalf("lookup = %+v", res)
	}
}

func TestClientMajorityReadPrefersFresh(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 3)
	key := bitpath.MustParse("0011")
	// Install v1 everywhere by publishing generously, then v2 at most
	// replicas.
	all := make([]addr.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		all[i] = n.Addr()
	}
	cl.Publish(all[:8], store.Entry{Key: key, Name: "d", Holder: 1, Version: 1}, 4, 6)
	cl.Publish(all[8:16], store.Entry{Key: key, Name: "d", Holder: 2, Version: 2}, 4, 4)
	res := cl.MajorityRead(all, key, "d", 3, 64)
	if !res.Found || res.Entry.Version != 2 {
		t.Fatalf("majority read = %+v, want version 2", res)
	}
}

func TestClientPublishNoEntryPoints(t *testing.T) {
	c := NewCluster(16, smallCfg(), 4)
	cl := NewClient(c.Transport, 104)
	r, m := cl.Publish(nil, store.Entry{Key: "01", Name: "x", Version: 1}, 2, 2)
	if r != 0 || m != 0 {
		t.Errorf("publish with no entry points: %d/%d", r, m)
	}
}

func TestClientPrefixSearchOverNetwork(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 5)
	all := make([]addr.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		all[i] = n.Addr()
	}
	// Two entries under prefix 01, one elsewhere.
	cl.Publish(all[:4], store.Entry{Key: "0100", Name: "a", Holder: 1, Version: 1}, 4, 3)
	cl.Publish(all[4:8], store.Entry{Key: "0111", Name: "b", Holder: 2, Version: 1}, 4, 3)
	cl.Publish(all[8:12], store.Entry{Key: "1100", Name: "c", Holder: 3, Version: 1}, 4, 3)

	got, msgs := cl.PrefixSearch(c.Nodes[0].Addr(), bitpath.MustParse("01"), 4)
	if msgs == 0 {
		t.Error("no messages counted")
	}
	names := map[string]bool{}
	for _, e := range got {
		names[e.Name] = true
	}
	if !names["a"] || !names["b"] || names["c"] {
		t.Errorf("prefix search returned %v", names)
	}
}

// TestClientPrefixSearchKeepsSameNameUnderDifferentKeys: scans are merged
// on the store's identity, (key, name), not on the name alone.
func TestClientPrefixSearchKeepsSameNameUnderDifferentKeys(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 5)
	all := make([]addr.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		all[i] = n.Addr()
	}
	want := []store.Entry{
		{Key: "0100", Name: "a.txt", Holder: 1, Version: 1},
		{Key: "0101", Name: "a.txt", Holder: 2, Version: 1},
	}
	for _, e := range want {
		cl.Publish(all, e, 4, 3)
	}
	// An older copy of the first one at some replicas must still lose.
	cl.Publish(all[:2], store.Entry{Key: "0100", Name: "a.txt", Holder: 9, Version: 0}, 1, 1)
	got, _ := cl.PrefixSearch(c.Nodes[0].Addr(), bitpath.MustParse("010"), 4)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PrefixSearch(010) = %v, want %v", got, want)
	}
}

func TestClientSurvivesOfflinePeers(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 6)
	for i, n := range c.Nodes {
		if i%2 == 0 {
			n.SetOnline(false)
		}
	}
	key := bitpath.MustParse("11")
	start := c.Nodes[1].Addr() // online
	res := cl.ReplicaSearch(start, key, 3)
	for _, a := range res.Found {
		if int(a)%2 == 0 {
			t.Errorf("offline peer %v reported", a)
		}
	}
}

func TestWalkCleanCluster(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 9)
	res := cl.Walk(c.Nodes[0].Addr(), wire.ObserveReq{Asks: wire.AskHealth})
	if len(res.Reached) != 64 || len(res.Unreachable) != 0 {
		t.Fatalf("walk reached %d, unreachable %v", len(res.Reached), res.Unreachable)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean cluster has violations: %v", res.Violations)
	}
	depth := 0
	for _, d := range res.Digests {
		depth += d.Path.Len()
	}
	if avg := float64(depth) / float64(len(res.Digests)); avg < 3.9 {
		t.Errorf("avg depth = %v", avg)
	}
}

func TestWalkDetectsViolationAndOffline(t *testing.T) {
	c, cl := builtCluster(t, 32, smallCfg(), 10)
	// Corrupt one reference: make node 0 reference a same-side peer.
	var sameSide addr.Addr = addr.Nil
	p0 := c.Nodes[0].Path()
	for _, n := range c.Nodes[1:] {
		if n.Path().Bit(1) == p0.Bit(1) {
			sameSide = n.Addr()
			break
		}
	}
	if sameSide == addr.Nil {
		t.Fatal("fixture: no same-side peer")
	}
	c.Nodes[0].Peer().SetRefsAt(1, addr.NewSet(sameSide))
	c.Nodes[5].SetOnline(false)

	res := cl.Walk(c.Nodes[0].Addr(), wire.ObserveReq{})
	want := Violation{From: 0, FromPath: p0, Level: 1, To: sameSide, ToPath: c.Nodes[sameSide].Path()}
	if !slices.Contains(res.Violations, want) {
		t.Errorf("corrupted reference not detected: %v", res.Violations)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != 5 {
		t.Errorf("unreachable = %v", res.Unreachable)
	}
}

// TestWalkViolationOrderIsStable: two walks of one broken community list the
// same violations in the same order — peers ascending, levels ascending,
// targets sorted — so `pgridctl cluster` output can be diffed between runs.
func TestWalkViolationOrderIsStable(t *testing.T) {
	c, cl := builtCluster(t, 32, smallCfg(), 10)
	all := make([]addr.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		all[i] = n.Addr()
	}
	// Break level 1 everywhere: every node references its two neighbours,
	// and at least one of them sits on its own side of the root split.
	for i, n := range c.Nodes {
		n.Peer().SetRefsAt(1, addr.NewSet(all[(i+1)%len(all)], all[(i+2)%len(all)]))
	}
	first := cl.Walk(all[0], wire.ObserveReq{}).Violations
	if len(first) < 8 {
		t.Fatalf("fixture: only %d violations, too few to catch a random order", len(first))
	}
	for run := 0; run < 4; run++ {
		if again := cl.Walk(all[run+1], wire.ObserveReq{}).Violations; !reflect.DeepEqual(first, again) {
			t.Fatalf("walk %d differs from the first:\n%v\nvs\n%v", run+2, again, first)
		}
	}
}
