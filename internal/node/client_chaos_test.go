package node

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// malformTransport mangles responses to one request kind in a chosen way,
// passing everything else through — the deterministic counterpart of
// ChaosTransport's random corruption, for table-driven error-path tests.
// Mode "" only counts.
type malformTransport struct {
	inner  Transport
	kind   wire.Kind
	mode   string       // "", "nilpayload", "wrongkind", "kinderror", "noread", "nocolumn", "corrupt", "offline"
	column wire.Ask     // the column mode "nocolumn" strips from an observe answer
	calls  atomic.Int64 // round trips attempted through this transport
}

func (m *malformTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	m.calls.Add(1)
	resp, err := m.inner.Call(to, msg)
	if err != nil || m.mode == "" {
		return resp, err
	}
	if msg.Kind == m.kind {
		switch m.mode {
		case "corrupt":
			return nil, fmt.Errorf("%w: injected", wire.ErrCorrupt)
		case "offline":
			return nil, fmt.Errorf("%w: injected", ErrOffline)
		case "kinderror": // what every transport makes of a KindError answer
			return nil, fmt.Errorf("node %v: injected", to)
		}
		return m.mangle(resp), nil
	}
	return resp, nil
}

// mangle returns the wrong-shaped answer the mode stands for.
func (m *malformTransport) mangle(resp *wire.Message) *wire.Message {
	switch m.mode {
	case "nilpayload":
		return &wire.Message{Kind: resp.Kind, From: resp.From}
	case "wrongkind":
		return &wire.Message{Kind: wire.KindApplyResp, From: resp.From, ApplyResp: &wire.ApplyResp{}}
	case "noread": // a query answer without the entry its read asked for
		q := *resp.QueryResp
		q.Entry, q.Has = store.Entry{}, false
		return &wire.Message{Kind: resp.Kind, From: resp.From, QueryResp: &q}
	case "nocolumn": // an observe answer without one of the columns asked for
		o := *resp.ObserveResp
		switch m.column {
		case wire.AskLinks:
			o.Links = nil
		case wire.AskHealth:
			o.Health = nil
		case wire.AskMetrics:
			o.Metrics = nil
		case wire.AskHistory:
			o.History = nil
		case wire.AskRepair:
			o.Repair = nil
		case wire.AskTraces:
			o.Traces = nil
		}
		return &wire.Message{Kind: resp.Kind, From: resp.From, ObserveResp: &o}
	default:
		panic("unknown malform mode " + m.mode)
	}
}

func counterVal(t *testing.T, tel *telemetry.Instruments, name string) int64 {
	t.Helper()
	for _, s := range tel.MetricsSnapshot().Stats {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestClientMalformedResponses drives every client call path against
// peers that answer with the wrong shape and checks two things: the call
// degrades (error or not-found) instead of panicking, and errors carry
// ErrMalformed so the resilience layer classifies them Corrupt — not
// retryable.
func TestClientMalformedResponses(t *testing.T) {
	c, _ := builtCluster(t, 64, smallCfg(), 21)
	start := c.Nodes[0].Addr()
	key := bitpath.MustParse("10")
	for _, n := range c.Nodes { // so a lookup that is not interfered with finds "f"
		n.Store().Apply(store.Entry{Key: key, Name: "f", Holder: 1, Version: 1})
	}

	cases := []struct {
		name string
		kind wire.Kind
		mode string
		call func(t *testing.T, cl *Client)
	}{
		{"info nil payload via replica search", wire.KindInfo, "nilpayload", func(t *testing.T, cl *Client) {
			if res := cl.ReplicaSearch(start, key, 2); len(res.Found) != 0 || res.Messages != 1 {
				t.Errorf("replica search of a malformed peer: %+v", res)
			}
		}},
		{"info wrong kind via replica search", wire.KindInfo, "wrongkind", func(t *testing.T, cl *Client) {
			res := cl.ReplicaSearch(start, key, 2)
			if len(res.Found) != 0 {
				t.Errorf("replica search trusted a malformed info: %+v", res)
			}
			if res.Messages == 0 {
				t.Error("messages not counted on the failed fetch")
			}
		}},
		{"traced query nil payload", wire.KindQuery, "nilpayload", func(t *testing.T, cl *Client) {
			_, err := cl.Route(start, key, true)
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("Route err = %v, want ErrMalformed", err)
			}
		}},
		{"traces wrong kind", wire.KindObserve, "wrongkind", func(t *testing.T, cl *Client) {
			_, err := cl.Observe(start, wire.ObserveReq{Asks: wire.AskTraces, TraceLimit: 4})
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("Observe traces err = %v, want ErrMalformed", err)
			}
		}},
		{"health nil payload", wire.KindObserve, "nilpayload", func(t *testing.T, cl *Client) {
			_, err := cl.Observe(start, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness})
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("Observe health err = %v, want ErrMalformed", err)
			}
		}},
		{"lookup query nil payload", wire.KindQuery, "nilpayload", func(t *testing.T, cl *Client) {
			if res := cl.Lookup(start, key, "f"); res.Found {
				t.Errorf("lookup trusted a malformed query response: %+v", res)
			}
		}},
		// The read rides on the query: an answer that lost it on the way back
		// is a responsible peer without the entry, not a malformed response.
		{"lookup get stripped", wire.KindQuery, "noread", func(t *testing.T, cl *Client) {
			if res := cl.Lookup(start, key, "f"); res.Found || res.Replica == addr.Nil {
				t.Errorf("lookup of a stripped read: %+v, want not found at a named replica", res)
			}
		}},
		{"replica dies before get", wire.KindQuery, "", func(t *testing.T, cl *Client) {
			first := cl.Lookup(start, key, "f")
			if !first.Found {
				t.Fatalf("lookup with everyone online: %+v", first)
			}
			c.Nodes[first.Replica].SetOnline(false)
			defer c.Nodes[first.Replica].SetOnline(true)
			if res := cl.Lookup(start, key, "f"); res.Replica == first.Replica {
				t.Errorf("lookup answered by a dead replica: %+v", res)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.call(t, NewClient(&malformTransport{inner: c.Transport, kind: tc.kind, mode: tc.mode}, 99))
		})
	}
}

// TestClientSurvivesHeavyCorruption floods every client walk with random
// ChaosTransport corruption and checks nothing panics — the walks must
// treat a mangled community as degraded, not as fatal.
func TestClientSurvivesHeavyCorruption(t *testing.T) {
	c, _ := builtCluster(t, 32, smallCfg(), 22)
	chaos := NewChaosTransport(c.Transport, ChaosConfig{Corrupt: 0.5, Seed: 22})
	cl := NewClient(chaos, 23)

	key := bitpath.MustParse("011")
	cl.ReplicaSearch(c.Nodes[3].Addr(), key, 2)
	cl.MajorityRead([]addr.Addr{c.Nodes[4].Addr(), c.Nodes[5].Addr()}, key, "f", 2, 16)
	cl.Walk(c.Nodes[6].Addr(), wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness | wire.AskRepair})

	if chaos.Stats().Corrupted == 0 {
		t.Error("chaos transport injected nothing")
	}
}

// TestReplicaSearchSurvivesMidWalkDeath kills a third of the community
// between building the grid and walking it: the BFS must route around the
// dead peers and still return only covering, reachable replicas.
func TestReplicaSearchSurvivesMidWalkDeath(t *testing.T) {
	c, cl := builtCluster(t, 64, smallCfg(), 24)
	rng := rand.New(rand.NewSource(24))
	for _, i := range rng.Perm(64)[:21] {
		if i != 0 { // keep the entry point alive
			c.Nodes[i].SetOnline(false)
		}
	}
	key := bitpath.MustParse("110")
	res := cl.ReplicaSearch(c.Nodes[0].Addr(), key, 3)
	for _, a := range res.Found {
		n := c.Nodes[int(a)]
		if !n.Online() {
			t.Errorf("search returned offline peer %v", a)
		}
		if !bitpath.Comparable(n.Path(), key) {
			t.Errorf("search returned non-covering peer %v (path %q)", a, n.Path())
		}
	}
}

// TestMajorityReadDeterministic: a majority read draws its entry points
// from the client's seeded stream and nothing else, so two clients with
// the same seed over twin communities return deep-equal results, read
// for read.
func TestMajorityReadDeterministic(t *testing.T) {
	// Two identically-seeded communities: routing consumes node-side
	// randomness, so running both clients against one cluster would let
	// the first run perturb the second. Twin clusters keep every source
	// of randomness aligned between the two reads.
	build := func() (*Cluster, []addr.Addr) {
		c, _ := builtCluster(t, 64, smallCfg(), 25)
		entries := []addr.Addr{c.Nodes[2].Addr(), c.Nodes[17].Addr(), c.Nodes[40].Addr()}
		pub := NewClient(c.Transport, 333)
		for i := 0; i < 6; i++ {
			e := store.Entry{Key: bitpath.Random(rand.New(rand.NewSource(int64(i))), 4),
				Name: fmt.Sprintf("f%d", i), Holder: addr.Addr(i), Version: uint64(i + 1)}
			pub.Publish(entries, e, 3, 2)
		}
		return c, entries
	}
	ca, entries := build()
	cb, _ := build()

	a := NewClient(ca.Transport, 777)
	b := NewClient(cb.Transport, 777)
	for i := 0; i < 6; i++ {
		key := bitpath.Random(rand.New(rand.NewSource(int64(i))), 4)
		name := fmt.Sprintf("f%d", i)
		ra := a.MajorityRead(entries, key, name, 2, 24)
		rb := b.MajorityRead(entries, key, name, 2, 24)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("read %d diverged:\n%+v\n%+v", i, ra, rb)
		}
	}
}

// TestMaintainCountsMalformed checks the maintenance round separates
// misbehaving peers from churned ones in telemetry: every reference that
// answers its probe without an Info is counted malformed, and is then
// treated like a dead one (here every level dies whole, so each is
// starved and either kept as unhealed or refuted by a routed search).
func TestMaintainCountsMalformed(t *testing.T) {
	c := NewCluster(8, smallCfg(), 27)
	rng := rand.New(rand.NewSource(27))
	buildCluster(t, c, 0.9*2, 20000, rng)

	n := c.Nodes[0]
	if n.Path().Len() == 0 {
		t.Skip("node 0 did not specialize")
	}
	probes, levels := 0, 0
	for level := 1; level <= n.Path().Len(); level++ {
		if k := n.Peer().RefsAt(level).Len(); k > 0 {
			probes += k
			levels++
		}
	}
	if probes == 0 {
		t.Skip("node 0 holds no references")
	}
	tel := telemetry.New(0)
	n.SetTelemetry(tel)
	n.tr = &malformTransport{inner: c.Transport, kind: wire.KindInfo, mode: "nilpayload"}
	r := NewRepairer(n, time.Second, 27)
	r.budget = 256
	r.Tick()

	if got := counterVal(t, tel, `pgrid_rpc_malformed_kind_total{kind="info"}`); got != int64(probes) {
		t.Errorf("malformed info answers counted = %d, want every probe (%d)", got, probes)
	}
	var dead int64
	for _, l := range n.HealthTracker().Snapshot() {
		dead += l.Dead
		if l.Live != 0 {
			t.Errorf("level %d: a malformed answer was tallied live: %+v", l.Level, l)
		}
	}
	if dead != int64(probes) {
		t.Errorf("dead tallies = %d, want %d (a malformed reference reads as dead)", dead, probes)
	}
	if got := tallyOf(r.Status().Faults, repair.FaultStarvedLevel); got != int64(levels) {
		t.Errorf("starved-level faults = %d, want %d (every level died whole)", got, levels)
	}
}

func TestErrMalformedMessageNamesKind(t *testing.T) {
	c := NewCluster(2, smallCfg(), 28)
	cl := NewClient(&malformTransport{inner: c.Transport, kind: wire.KindObserve, mode: "wrongkind"}, 1)
	_, err := cl.Observe(c.Nodes[0].Addr(), wire.ObserveReq{Asks: wire.AskHealth})
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("malformed error should name the answered kind: %v", err)
	}
}
