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
	for _, s := range tel.Registry().Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestClientMalformedResponses drives every client call path against
// peers that answer with the wrong shape and checks three things: the
// call degrades (error or not-found) instead of panicking, errors carry
// ErrMalformed so the resilience layer classifies them Corrupt — not
// retryable — and the malformed tally lands in telemetry under the
// request kind.
func TestClientMalformedResponses(t *testing.T) {
	c, _ := builtCluster(t, 64, smallCfg(), 21)
	start := c.Nodes[0].Addr()
	key := bitpath.MustParse("10")
	for _, n := range c.Nodes { // so a lookup that is not interfered with finds "f"
		n.Store().Apply(store.Entry{Key: key, Name: "f", Holder: 1, Version: 1})
	}

	cases := []struct {
		name    string
		kind    wire.Kind
		mode    string
		counter string // labeled malformed counter expected to move
		call    func(t *testing.T, cl *Client)
	}{
		{"info nil payload via audit", wire.KindInfo, "nilpayload", "info", func(t *testing.T, cl *Client) {
			rep := cl.Audit([]addr.Addr{start})
			if rep.Reachable != 0 || len(rep.Unreachable) != 1 {
				t.Errorf("audit of malformed peer: %+v", rep)
			}
		}},
		{"info wrong kind via replica search", wire.KindInfo, "wrongkind", "info", func(t *testing.T, cl *Client) {
			res := cl.ReplicaSearch(start, key, 2)
			if len(res.Found) != 0 {
				t.Errorf("replica search trusted a malformed info: %+v", res)
			}
			if res.Messages == 0 {
				t.Error("messages not counted on the failed fetch")
			}
		}},
		{"traced query nil payload", wire.KindQuery, "nilpayload", "query", func(t *testing.T, cl *Client) {
			_, err := cl.TraceQuery(start, key)
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("TraceQuery err = %v, want ErrMalformed", err)
			}
		}},
		{"traces wrong kind", wire.KindObserve, "wrongkind", "observe", func(t *testing.T, cl *Client) {
			_, err := cl.Observe(start, wire.ObserveReq{Asks: wire.AskTraces, TraceLimit: 4})
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("Observe traces err = %v, want ErrMalformed", err)
			}
		}},
		{"health nil payload", wire.KindObserve, "nilpayload", "observe", func(t *testing.T, cl *Client) {
			_, err := cl.Observe(start, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness})
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("Observe health err = %v, want ErrMalformed", err)
			}
		}},
		{"lookup query nil payload", wire.KindQuery, "nilpayload", "query", func(t *testing.T, cl *Client) {
			if res := cl.Lookup(start, key, "f"); res.Found {
				t.Errorf("lookup trusted a malformed query response: %+v", res)
			}
		}},
		// The read rides on the query: an answer that lost it on the way back
		// is a responsible peer without the entry, not a malformed response.
		{"lookup get stripped", wire.KindQuery, "noread", "", func(t *testing.T, cl *Client) {
			if res := cl.Lookup(start, key, "f"); res.Found || res.Replica == addr.Nil {
				t.Errorf("lookup of a stripped read: %+v, want not found at a named replica", res)
			}
		}},
		{"replica dies before get", wire.KindQuery, "", "", func(t *testing.T, cl *Client) {
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
			tel := telemetry.New(0)
			cl := NewClient(&malformTransport{inner: c.Transport, kind: tc.kind, mode: tc.mode}, 99)
			cl.SetTelemetry(tel)
			tc.call(t, cl)
			if tc.counter == "" {
				return
			}
			name := fmt.Sprintf("pgrid_rpc_malformed_kind_total{kind=%q}", tc.counter)
			if counterVal(t, tel, name) == 0 {
				t.Errorf("counter %s did not move", name)
			}
			if counterVal(t, tel, "pgrid_rpc_malformed_total") == 0 {
				t.Error("total malformed counter did not move")
			}
		})
	}
}

// TestClientSurvivesHeavyCorruption floods every client walk with random
// ChaosTransport corruption and checks nothing panics and the malformed
// tallies move — the walks must treat a mangled community as degraded,
// not as fatal.
func TestClientSurvivesHeavyCorruption(t *testing.T) {
	c, _ := builtCluster(t, 32, smallCfg(), 22)
	chaos := NewChaosTransport(c.Transport, ChaosConfig{Corrupt: 0.5, Seed: 22})
	tel := telemetry.New(0)
	cl := NewClient(chaos, 23)
	cl.SetTelemetry(tel)

	key := bitpath.MustParse("011")
	cl.ReplicaSearch(c.Nodes[3].Addr(), key, 2)
	cl.Audit([]addr.Addr{c.Nodes[0].Addr(), c.Nodes[1].Addr(), c.Nodes[2].Addr()})
	cl.MajorityRead([]addr.Addr{c.Nodes[4].Addr(), c.Nodes[5].Addr()}, key, "f", 2, 16)
	cl.Walk(c.Nodes[6].Addr(), wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness | wire.AskRepair})

	if counterVal(t, tel, "pgrid_rpc_malformed_total") == 0 {
		t.Error("heavy corruption left the malformed counter untouched")
	}
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

// TestHedgedEqualsPlainMajorityRead is the acceptance property: on a
// fault-free transport where the hedge delay never elapses, a hedged
// majority read consumes the same randomness and returns the same answer
// as a plain one — hedging is an availability optimization, never a
// semantic change. Same seed, same reads, deep-equal results.
func TestHedgedEqualsPlainMajorityRead(t *testing.T) {
	// Two identically-seeded communities: routing consumes node-side
	// randomness, so running both clients against one cluster would let
	// the first run perturb the second. Twin clusters keep every source
	// of randomness aligned between the plain and the hedged read.
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
	cp, entries := build()
	ch, _ := build()

	plain := NewClient(cp.Transport, 777)
	hedged := NewClient(ch.Transport, 777)
	tel := telemetry.New(0)
	hedged.SetTelemetry(tel)
	// In-process reads finish in microseconds; a 1s floor means the hedge
	// timer never fires, so the hedged client must follow the exact same
	// path as the plain one.
	hedged.EnableHedging(HedgeConfig{MinDelay: time.Second, MaxDelay: time.Second})

	for i := 0; i < 6; i++ {
		key := bitpath.Random(rand.New(rand.NewSource(int64(i))), 4)
		name := fmt.Sprintf("f%d", i)
		p := plain.MajorityRead(entries, key, name, 2, 24)
		h := hedged.MajorityRead(entries, key, name, 2, 24)
		if !reflect.DeepEqual(p, h) {
			t.Fatalf("read %d diverged:\nplain  %+v\nhedged %+v", i, p, h)
		}
	}
	if got := counterVal(t, tel, "pgrid_resilience_hedges_total"); got != 0 {
		t.Errorf("hedge fired %d times on a fault-free transport with a 1s floor", got)
	}
}

// TestHedgeFiresOnSlowTransport forces the opposite regime: every call
// slower than the hedge ceiling, so each majority-read attempt races two
// peers. The read must still return the published entry, and the hedge
// counters must move.
func TestHedgeFiresOnSlowTransport(t *testing.T) {
	c, _ := builtCluster(t, 32, smallCfg(), 26)
	entries := []addr.Addr{c.Nodes[1].Addr(), c.Nodes[9].Addr()}
	e := store.Entry{Key: bitpath.MustParse("0101"), Name: "f", Holder: 3, Version: 9}
	NewClient(c.Transport, 1).Publish(entries, e, 3, 3)

	chaos := NewChaosTransport(c.Transport, ChaosConfig{LatencyBase: 4 * time.Millisecond, Seed: 26})
	tel := telemetry.New(0)
	cl := NewClient(chaos, 2)
	cl.SetTelemetry(tel)
	cl.EnableHedging(HedgeConfig{MinDelay: time.Millisecond, MaxDelay: time.Millisecond})

	res := cl.MajorityRead(entries, e.Key, "f", 2, 12)
	if !res.Found || res.Entry.Version != 9 {
		t.Fatalf("hedged read = %+v", res)
	}
	if counterVal(t, tel, "pgrid_resilience_hedges_total") == 0 {
		t.Error("no hedges fired despite 4ms calls against a 1ms ceiling")
	}
}

func TestHedgeDelayPercentile(t *testing.T) {
	cl := NewClient(NewLocalTransport(), 1)
	cl.EnableHedging(HedgeConfig{Percentile: 0.9, MinDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond})
	if d := cl.hedgeDelay(); d != 100*time.Millisecond {
		t.Errorf("empty window delay = %v, want the 100ms ceiling", d)
	}
	for i := 1; i <= 100; i++ { // ring keeps the last 64: 37ms…100ms
		cl.recordLatency(time.Duration(i) * time.Millisecond)
	}
	d := cl.hedgeDelay()
	if d < 90*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("p90 over 37…100ms window = %v", d)
	}
	cl.hedge.MaxDelay = 50 * time.Millisecond
	if d := cl.hedgeDelay(); d != 50*time.Millisecond {
		t.Errorf("clamped delay = %v, want 50ms", d)
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
	r := NewRepairer(n, time.Second, RepairConfig{Budget: 256}, 27)
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
	cl := NewClient(&malformTransport{inner: c.Transport, kind: wire.KindInfo, mode: "wrongkind"}, 1)
	_, err := cl.nodeInfo(c.Nodes[0].Addr())
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("malformed error should name the answered kind: %v", err)
	}
}
