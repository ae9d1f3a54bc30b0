package node

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// countingTransport counts the calls that were answered: each is one
// message in the paper's cost unit, whoever made it.
type countingTransport struct {
	inner Transport
	ok    *atomic.Int64
}

func (t countingTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	resp, err := t.inner.Call(to, m)
	if err == nil {
		t.ok.Add(1)
	}
	return resp, err
}

// storeFixture gives every peer the entry "f" for each 4-bit key it is
// responsible for.
func storeFixture(nodes []*Node) {
	for _, n := range nodes {
		for v := uint64(0); v < 1<<4; v++ {
			key := bitpath.FromUint(v, 4)
			if bitpath.Comparable(n.Path(), key) {
				n.Store().Apply(store.Entry{Key: key, Name: "f", Holder: n.Addr(), Version: 7})
			}
		}
	}
}

// countedCluster is builtCluster with every node's stack and the client's
// behind one counter, and the entry "f" for each 4-bit key stored at every
// peer responsible for it.
func countedCluster(t *testing.T, seed int64) (*Cluster, *Client, *atomic.Int64) {
	t.Helper()
	c, _ := builtCluster(t, 64, smallCfg(), seed)
	calls := new(atomic.Int64)
	counted := countingTransport{c.Transport, calls}
	for _, n := range c.Nodes {
		n.tr = counted
	}
	storeFixture(c.Nodes)
	return c, NewClient(counted, seed+100), calls
}

// TestReadMessagesCountAnsweredCalls: what a read bills is what it sent —
// ReadResult.Messages equals the calls answered on the op's behalf, by
// anyone, with everyone online and with a quarter of the community offline
// (a call to an offline peer is neither answered nor billed). A responsible peer without the entry is still the
// replica the read names.
func TestReadMessagesCountAnsweredCalls(t *testing.T) {
	for _, offline := range []int{0, 16} {
		c, cl, calls := countedCluster(t, 31)
		rng := rand.New(rand.NewSource(32))
		for _, i := range rng.Perm(len(c.Nodes))[:offline] {
			c.Nodes[i].SetOnline(false)
		}
		var entries []addr.Addr
		for _, n := range c.Nodes {
			if n.Online() {
				entries = append(entries, n.Addr())
			}
		}
		found := 0
		for i := 0; i < 300; i++ {
			key := bitpath.Random(rng, 4)
			start := entries[rng.Intn(len(entries))]

			before := calls.Load()
			res := cl.Lookup(start, key, "f")
			if sent := calls.Load() - before; int64(res.Messages) != sent {
				t.Fatalf("offline=%d: Lookup(%v, %s) bills %d messages, %d calls were answered", offline, start, key, res.Messages, sent)
			}
			if res.Found {
				found++
				if want := (store.Entry{Key: key, Name: "f", Holder: res.Replica, Version: 7}); res.Entry != want {
					t.Fatalf("offline=%d: Lookup(%s) = %+v, want %+v", offline, key, res.Entry, want)
				}
			} else if offline == 0 {
				t.Fatalf("Lookup(%v, %s) with everyone online: %+v", start, key, res)
			}

			before = calls.Load()
			miss := cl.Lookup(start, key, "absent")
			if sent := calls.Load() - before; int64(miss.Messages) != sent {
				t.Fatalf("offline=%d: missing-name Lookup bills %d messages, %d calls were answered", offline, miss.Messages, sent)
			}
			if miss.Found || miss.Entry != (store.Entry{}) {
				t.Fatalf("offline=%d: Lookup of a name nobody stores: %+v", offline, miss)
			}
			if miss.Replica != addr.Nil && !bitpath.Comparable(c.Nodes[miss.Replica].Path(), key) {
				t.Fatalf("offline=%d: replica %v (path %s) is not responsible for %s", offline, miss.Replica, c.Nodes[miss.Replica].Path(), key)
			}
			if offline == 0 && miss.Replica == addr.Nil {
				t.Fatalf("Lookup(%s) of a missing name lost the replica that answered: %+v", key, miss)
			}

			before = calls.Load()
			maj := cl.MajorityRead(entries, key, "f", 2, 8)
			if sent := calls.Load() - before; int64(maj.Messages) != sent {
				t.Fatalf("offline=%d: MajorityRead bills %d messages, %d calls were answered", offline, maj.Messages, sent)
			}
		}
		if found == 0 {
			t.Errorf("offline=%d: no lookup found its entry", offline)
		}
	}
}

// TestLookupMatchesQueryThenGet: on two communities built alike, the routed
// read and the pair of conversations it replaced — a search, then a get at
// the peer it names — walked with the same draws end at the same replica with
// the same entry, and the read costs exactly the one message less.
func TestLookupMatchesQueryThenGet(t *testing.T) {
	one, cl, _ := countedCluster(t, 33)
	two, searcher, calls := countedCluster(t, 33)
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 200; i++ {
		key := bitpath.Random(rng, 4)
		start := one.Nodes[rng.Intn(len(one.Nodes))].Addr()
		name := []string{"f", "absent"}[i%2]

		res := cl.Lookup(start, key, name)

		before := calls.Load()
		q, err := searcher.Route(start, key, false)
		if err != nil || !q.Found {
			t.Fatalf("query %s via %v: %+v, %v", key, start, q, err)
		}
		replica := q.Spans[len(q.Spans)-1].Peer
		g, err := two.Nodes[0].tr.Call(replica, &wire.Message{Kind: wire.KindGet, From: addr.Nil, Get: &wire.GetReq{Key: key, Name: name}})
		if err != nil {
			t.Fatal(err)
		}
		pair := ReadResult{Entry: g.GetResp.Entry, Found: g.GetResp.Found, Replica: replica,
			Messages: int(calls.Load()-before) - 1, Queries: 1}
		if res != pair {
			t.Fatalf("Lookup(%v, %s, %q) = %+v, query then get = %+v less the get", start, key, name, res, pair)
		}
	}
}

// TestReadResultReplicaRule: the simulator's reads and the client's name a
// replica by one rule. A single read names the responsible peer it reached,
// whether or not that peer held the entry; a read no responsible peer
// answered names addr.Nil, and so does every majority read, whether it
// committed or spent its budget.
func TestReadResultReplicaRule(t *testing.T) {
	d, c := transplantedCluster(t, 45)
	cl := NewClient(c.Transport, 46)
	rng := rand.New(rand.NewSource(47))
	var e store.Entry
	for _, p := range d.All() {
		if entries := p.Store().Entries(); len(entries) > 0 {
			e = entries[0]
			break
		}
	}
	all := make([]addr.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		all[i] = n.Addr()
	}
	responsible := func(driver string, r ReadResult, name string) {
		t.Helper()
		if r.Replica == addr.Nil || !bitpath.Comparable(d.Peer(r.Replica).Path(), e.Key) {
			t.Errorf("%s read of %q at %s names replica %v: want the responsible peer it reached", driver, name, e.Key, r.Replica)
		}
	}
	for _, name := range []string{e.Name, "absent"} {
		for i := 0; i < 20; i++ {
			start := addr.Addr(rng.Intn(len(all)))
			responsible("simulator", core.ReadOnce(d, d.Peer(start), e.Key, name, rng), name)
			responsible("client", cl.Lookup(start, e.Key, name), name)
		}
	}
	for _, tc := range []struct {
		what               string
		margin, maxQueries int
	}{{"committed", 1, 64}, {"out of budget", 50, 3}} {
		sim := core.MajorityRead(d, e.Key, e.Name, core.MajorityOptions{Margin: tc.margin, MaxQueries: tc.maxQueries}, rng)
		net := cl.MajorityRead(all, e.Key, e.Name, tc.margin, tc.maxQueries)
		if !sim.Found || !net.Found || sim.Replica != addr.Nil || net.Replica != addr.Nil {
			t.Errorf("majority read %s: simulator %+v, client %+v; want found, replica addr.Nil", tc.what, sim, net)
		}
	}

	// Only a peer that does not cover the key is left online: no responsible
	// peer answers.
	var start addr.Addr
	for bitpath.Comparable(d.Peer(start).Path(), e.Key) {
		start++
	}
	for i, n := range c.Nodes {
		n.SetOnline(addr.Addr(i) == start)
		d.Peer(addr.Addr(i)).SetOnline(addr.Addr(i) == start)
	}
	for driver, r := range map[string]ReadResult{
		"simulator read":          core.ReadOnce(d, d.Peer(start), e.Key, e.Name, rng),
		"client read":             cl.Lookup(start, e.Key, e.Name),
		"simulator majority read": core.MajorityRead(d, e.Key, e.Name, core.MajorityOptions{MaxQueries: 4}, rng),
		"client majority read":    cl.MajorityRead([]addr.Addr{start}, e.Key, e.Name, 3, 4),
	} {
		if r.Found || r.Replica != addr.Nil {
			t.Errorf("%s with no responsible peer online: %+v; want not found, replica addr.Nil", driver, r)
		}
	}
}

// callTap records each call a client makes: the message it sent, a copy of
// what that message carried when it was sent, and how it went.
type callTap struct {
	inner Transport
	calls []tappedCall
}

type tappedCall struct {
	to   addr.Addr
	msg  *wire.Message
	q    wire.QueryReq
	read wire.GetReq
	err  error
}

func (t *callTap) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	c := tappedCall{to: to, msg: m, q: *m.Query, read: *m.Query.Read}
	resp, err := t.inner.Call(to, m)
	c.err = err
	t.calls = append(t.calls, c)
	return resp, err
}

// TestWalkCallRefilledAfterMiss: a routed read visits a start peer that
// answers with a level of several references, the first of which the client
// draws is offline. The client fills its one call again for the second
// reference — the same message, carrying the same routed suffix, level and
// read — and the answer is core.Query's on the same grid with the same peer
// offline and the same draws, plus the message into the community.
func TestWalkCallRefilledAfterMiss(t *testing.T) {
	const seed = 41
	d, c := transplantedCluster(t, seed)
	// The start peer goes on through a level of several references with a
	// key that ends one bit past the level's common prefix, so every
	// reference there is responsible.
	var start *Node
	var next int
	for _, n := range c.Nodes {
		for l := 1; l <= n.Path().Len() && start == nil; l++ {
			if n.Peer().RefsAt(l).Len() >= 3 {
				start, next = n, l
			}
		}
	}
	if start == nil {
		t.Fatal("no peer has a level of three references")
	}
	key := start.Path().Prefix(next - 1).AppendFlip(start.Path().Bit(next))
	entry := store.Entry{Key: key, Name: "fwd", Holder: 3, Version: 5}
	for i, n := range c.Nodes {
		if bitpath.Comparable(n.Path(), key) {
			n.Store().Apply(entry)
			d.Peer(addr.Addr(i)).Store().Apply(entry)
		}
	}

	// The client draws every reference from its one rng, as core.Query does:
	// replaying that stream names the first reference it draws, which goes
	// offline on both sides.
	first, _ := addr.PopRandom(d.Peer(start.Addr()).RefsAt(next).Slice(), rand.New(rand.NewSource(seed)))
	c.Nodes[first].SetOnline(false)
	d.Peer(first).SetOnline(false)
	tap := &callTap{inner: c.Transport}
	got := NewClient(tap, seed).Lookup(start.Addr(), key, entry.Name)

	if len(tap.calls) != 3 || tap.calls[0].to != start.Addr() || tap.calls[1].to != first ||
		!errors.Is(tap.calls[1].err, ErrOffline) || tap.calls[2].err != nil {
		t.Fatalf("visits = %+v, want the start, the offline %v, then one answered call", tap.calls, first)
	}
	for i := 1; i < len(tap.calls); i++ {
		if tap.calls[i].msg != tap.calls[0].msg {
			t.Errorf("visit %d got a new message %p, not the client's one call %p filled again", i, tap.calls[i].msg, tap.calls[0].msg)
		}
	}
	rest, read := key.Suffix(next-1), wire.GetReq{Key: entry.Key, Name: entry.Name}
	for i, call := range tap.calls[1:] {
		if call.q.Key != rest || call.q.Level != next-1 || call.read != read {
			t.Errorf("visit %d carried key %s at level %d, read %+v; want %s at %d, %+v",
				i+1, call.q.Key, call.q.Level, call.read, rest, next-1, read)
		}
	}

	want := core.Query(d, d.Peer(start.Addr()), key, rand.New(rand.NewSource(seed)))
	if !want.Found || got.Replica != want.Peer || got.Messages != want.Messages+1 || !got.Found || got.Entry != entry {
		t.Fatalf("routed read = %+v; core.Query = %+v, entry %+v", got, want, entry)
	}
}
