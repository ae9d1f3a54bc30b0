package node

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/raceflag"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

func smallCfg() core.Config {
	return core.Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}
}

func TestExchangeCase1OverTransport(t *testing.T) {
	c := NewCluster(2, smallCfg(), 1)
	if err := c.Nodes[0].Exchange(1); err != nil {
		t.Fatal(err)
	}
	p0, p1 := c.Nodes[0].Path(), c.Nodes[1].Path()
	if p0 != "0" || p1 != "1" {
		t.Fatalf("paths = %q, %q", p0, p1)
	}
	if rs := c.Nodes[0].Peer().RefsAt(1); !rs.Contains(1) {
		t.Errorf("node 0 refs = %v", rs.String())
	}
	if rs := c.Nodes[1].Peer().RefsAt(1); !rs.Contains(0) {
		t.Errorf("node 1 refs = %v", rs.String())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeOfflineTargetFails(t *testing.T) {
	c := NewCluster(2, smallCfg(), 2)
	c.Nodes[1].SetOnline(false)
	if err := c.Nodes[0].Exchange(1); err == nil {
		t.Fatal("exchange with offline peer succeeded")
	}
	if c.Nodes[0].Path().Len() != 0 {
		t.Error("failed exchange mutated state")
	}
}

func TestExchangeSelfIsNoOp(t *testing.T) {
	c := NewCluster(2, smallCfg(), 3)
	if err := c.Nodes[0].Exchange(0); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].Path().Len() != 0 {
		t.Error("self exchange mutated state")
	}
}

// buildCluster drives random meetings until the average path length
// converges or the budget runs out.
func buildCluster(t *testing.T, c *Cluster, target float64, budget int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < budget; i++ {
		a := rng.Intn(len(c.Nodes))
		b := rng.Intn(len(c.Nodes) - 1)
		if b >= a {
			b++
		}
		c.Nodes[a].Exchange(addr.Addr(b))
		if i%100 == 0 && c.AvgPathLen() >= target {
			return
		}
	}
	if c.AvgPathLen() < target {
		t.Fatalf("cluster did not converge: avg %.2f < %.2f", c.AvgPathLen(), target)
	}
}

func TestClusterConstructionSequential(t *testing.T) {
	c := NewCluster(64, smallCfg(), 4)
	rng := rand.New(rand.NewSource(4))
	buildCluster(t, c, 0.99*4, 50000, rng)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("sequential cluster construction broke invariants: %v", err)
	}
}

func TestClusterQueryAfterConstruction(t *testing.T) {
	c := NewCluster(64, smallCfg(), 5)
	rng := rand.New(rand.NewSource(5))
	buildCluster(t, c, 0.99*4, 50000, rng)

	for i := 0; i < 200; i++ {
		key := bitpath.Random(rng, 4)
		start := c.Nodes[rng.Intn(len(c.Nodes))]
		res := start.Query(key)
		if !res.Found {
			t.Fatalf("query %s from %v failed on converged cluster", key, start.Addr())
		}
		// The responsible node's path must be comparable with the key.
		var resp *Node
		for _, n := range c.Nodes {
			if n.Addr() == res.Peer {
				resp = n
			}
		}
		if !bitpath.Comparable(resp.Path(), key) {
			t.Fatalf("query %s ended at %q", key, resp.Path())
		}
	}
}

func TestClusterApplyAndGet(t *testing.T) {
	c := NewCluster(16, smallCfg(), 6)
	e := store.Entry{Key: bitpath.MustParse("0101"), Name: "f", Holder: 2, Version: 1}
	resp, err := c.Transport.Call(3, &wire.Message{Kind: wire.KindApply, From: 0, Apply: &wire.ApplyReq{Entries: []store.Entry{e}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.ApplyResp.Changed {
		t.Error("fresh apply reported unchanged")
	}
	got, err := c.Transport.Call(3, &wire.Message{Kind: wire.KindGet, From: 0, Get: &wire.GetReq{Key: e.Key, Name: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.GetResp.Found || got.GetResp.Entry != e {
		t.Errorf("get = %+v", got.GetResp)
	}
}

func TestClusterInfo(t *testing.T) {
	c := NewCluster(2, smallCfg(), 7)
	c.Nodes[0].Exchange(1)
	resp, err := c.Transport.Call(0, &wire.Message{Kind: wire.KindInfo, From: 1})
	if err != nil {
		t.Fatal(err)
	}
	info := resp.InfoResp
	if info.Addr != 0 || info.Path != "0" || len(info.Refs) != 1 {
		t.Errorf("info = %+v", info)
	}
}

func TestUnknownKindIsError(t *testing.T) {
	c := NewCluster(2, smallCfg(), 8)
	if _, err := c.Transport.Call(0, &wire.Message{Kind: wire.KindQueryResp}); err == nil {
		t.Error("unexpected kind accepted")
	}
}

func TestDataHandoverOnNetworkSplit(t *testing.T) {
	c := NewCluster(2, smallCfg(), 9)
	// Node 0 indexes entries on both future sides.
	left := store.Entry{Key: bitpath.MustParse("00"), Name: "l", Holder: 0, Version: 1}
	right := store.Entry{Key: bitpath.MustParse("10"), Name: "r", Holder: 0, Version: 1}
	c.Nodes[0].Store().Apply(left)
	c.Nodes[0].Store().Apply(right)
	if err := c.Nodes[0].Exchange(1); err != nil {
		t.Fatal(err)
	}
	// Node 0 took side 0, node 1 side 1: "r" must have moved to node 1.
	if _, ok := c.Nodes[0].Store().Get(right.Key, "r"); ok {
		t.Error("node 0 kept an out-of-region entry")
	}
	if _, ok := c.Nodes[1].Store().Get(right.Key, "r"); !ok {
		t.Error("node 1 did not receive the handover")
	}
	if _, ok := c.Nodes[0].Store().Get(left.Key, "l"); !ok {
		t.Error("node 0 lost its own entry")
	}
}

// applyRecorder notes the entry count of every KindApply sent through it.
type applyRecorder struct {
	inner   Transport
	applies []int
}

func (a *applyRecorder) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	if m.Kind == wire.KindApply {
		a.applies = append(a.applies, len(m.Apply.Entries))
	}
	return a.inner.Call(to, m)
}

// TestExchangeHandoverOneFrame: what a node moves to one peer travels as one
// KindApply carrying every entry — the entries a split evicts, handed to the
// responder that now covers them, and a repair push to a wiped replica — and
// the receiver holds them all.
func TestExchangeHandoverOneFrame(t *testing.T) {
	const n = 5
	entries := func(prefix string) []store.Entry {
		out := make([]store.Entry, n)
		for i := range out {
			out[i] = store.Entry{Key: bitpath.MustParse(prefix + []string{"00", "01", "10", "11", "0"}[i]),
				Name: fmt.Sprintf("e%d", i), Holder: 0, Version: uint64(i + 1)}
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		run      func(t *testing.T) (sender *Node, rec *applyRecorder, receiver *Node, moved []store.Entry)
		fixtures int // the entries on the sender that stay put
	}{
		{"exchange handover", func(t *testing.T) (*Node, *applyRecorder, *Node, []store.Entry) {
			c := NewCluster(2, smallCfg(), 9)
			rec := &applyRecorder{inner: c.Nodes[0].tr}
			c.Nodes[0].tr = rec
			moved := entries("1") // node 0 takes side 0, node 1 side 1
			for _, e := range append(moved, entries("0")...) {
				c.Nodes[0].Store().Apply(e)
			}
			if err := c.Nodes[0].Exchange(1); err != nil {
				t.Fatal(err)
			}
			return c.Nodes[0], rec, c.Nodes[1], moved
		}, n},
		{"repair push", func(t *testing.T) (*Node, *applyRecorder, *Node, []store.Entry) {
			c := repairFixture(t, 35)
			rec := &applyRecorder{inner: c.Nodes[0].tr}
			c.Nodes[0].tr = rec
			moved := entries("0") // nodes 0 and 2 hold the partition; node 1 was wiped
			for _, e := range moved {
				c.Nodes[0].Store().Apply(e)
				c.Nodes[2].Store().Apply(e)
			}
			NewRepairer(c.Nodes[0], time.Second, 5).Tick()
			return c.Nodes[0], rec, c.Nodes[1], moved
		}, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sender, rec, receiver, moved := tc.run(t)
			if !reflect.DeepEqual(rec.applies, []int{len(moved)}) {
				t.Errorf("applies sent, by entry count: %v; want one carrying all %d", rec.applies, len(moved))
			}
			for _, e := range moved {
				if got, ok := receiver.Store().Get(e.Key, e.Name); !ok || got != e {
					t.Errorf("receiver holds %v, %v for %v", got, ok, e)
				}
			}
			if got := sender.Store().Len(); got != tc.fixtures {
				t.Errorf("sender holds %d entries, want %d", got, tc.fixtures)
			}
		})
	}
}

func TestClusterConstructionConcurrent(t *testing.T) {
	// Drive meetings from many goroutines: the networked protocol must
	// stay safe (no panics, bounded state) and still converge. Optimistic
	// concurrency may leave a few stale references; they must be rare and
	// must not stop queries from succeeding.
	cfg := smallCfg()
	c := NewCluster(128, cfg, 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 3000; i++ {
				a := rng.Intn(len(c.Nodes))
				b := rng.Intn(len(c.Nodes) - 1)
				if b >= a {
					b++
				}
				c.Nodes[a].Exchange(addr.Addr(b))
			}
		}(w)
	}
	wg.Wait()

	if avg := c.AvgPathLen(); avg < 3.5 {
		t.Fatalf("concurrent cluster stalled at avg depth %.2f", avg)
	}
	for _, n := range c.Nodes {
		if n.Path().Len() > cfg.MaxL {
			t.Errorf("node %v exceeded maxl: %q", n.Addr(), n.Path())
		}
	}
	refs := 0
	for _, n := range c.Nodes {
		s := n.Peer().Snapshot()
		for _, rs := range s.Refs {
			if rs.Len() > cfg.RefMax {
				t.Errorf("node %v exceeded refmax: %d", n.Addr(), rs.Len())
			}
			refs += rs.Len()
		}
	}
	if v := c.CountInvariantViolations(); v > refs/20 {
		t.Errorf("%d of %d references violate the invariant (> 5%%)", v, refs)
	}

	rng := rand.New(rand.NewSource(11))
	succ := 0
	for i := 0; i < 200; i++ {
		key := bitpath.Random(rng, 4)
		if c.Nodes[rng.Intn(len(c.Nodes))].Query(key).Found {
			succ++
		}
	}
	if succ < 190 {
		t.Errorf("only %d/200 queries succeeded on concurrently built cluster", succ)
	}
}

// TestAllocBudgetHandleInfo: an Info answer is read from the peer under one
// lock straight into wire form — the reply Message with its InfoResp and the
// LinkRoom its RefSet slice and one shared address array are cut from, one
// object — and carries exactly what a Snapshot of the peer holds. Whoever asked
// decodes it into one object too: the short path is already in the codec's
// table, and the sets ride in the answer's own room.
func TestAllocBudgetHandleInfo(t *testing.T) {
	c, _ := builtCluster(t, 64, smallCfg(), 11)
	n := c.Nodes[3]
	n.Peer().AddBuddy(c.Nodes[4].Addr())
	n.Store().Apply(store.Entry{Key: n.Path(), Name: "x", Holder: 1, Version: 1})
	req := &wire.Message{Kind: wire.KindInfo, From: c.Nodes[5].Addr()}

	s := n.Peer().Snapshot()
	want := &wire.InfoResp{Addr: s.Addr, Path: s.Path, Refs: make([]wire.RefSet, len(s.Refs)),
		Buddies: wire.FromSet(s.Buddies), Entries: 1}
	for i, r := range s.Refs {
		want.Refs[i] = wire.FromSet(r)
	}
	if got := n.Handle(req).InfoResp; !reflect.DeepEqual(got, want) || len(want.Refs) == 0 {
		t.Fatalf("Info = %+v, want %+v", got, want)
	}
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	if got := testing.AllocsPerRun(200, func() { n.Handle(req) }); got != 1 {
		t.Errorf("Handle(KindInfo) = %.1f allocs, want 1", got)
	}
	frame, err := wire.AppendFrame(nil, 1, wire.FlagResponse, n.Handle(req))
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	var decoded *wire.Message
	decode := func() {
		src.Reset(frame)
		br.Reset(src)
		if _, _, decoded, err = wire.ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, decode); got != 1 {
		t.Errorf("decoding the Info answer = %.1f allocs, want 1", got)
	}
	if !reflect.DeepEqual(decoded.InfoResp, want) {
		t.Errorf("decoded Info = %+v, want %+v", decoded.InfoResp, want)
	}
}

// CheckInvariants verifies the Section 2 reference property across the
// cluster: every reference at level i points to a node that agrees on the
// first i-1 bits and differs at bit i. The networked protocol applies
// exchange decisions optimistically (a stale initiator drops the decision
// while the responder has already applied its half), so unlike the shared-
// memory engine it can leave a reference one split behind; those are
// harmless for routing (the branch just fails and search backtracks) and
// are surfaced by CountInvariantViolations instead.
func (c *Cluster) CheckInvariants() error {
	if v := c.CountInvariantViolations(); v > 0 {
		return fmt.Errorf("node: %d reference invariant violations", v)
	}
	return nil
}
