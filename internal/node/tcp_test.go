package node

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

func TestTCPExchangeAndQuery(t *testing.T) {
	nodes, _, stop := startPooledCluster(t, 8, PoolConfig{})
	defer stop()

	rng := rand.New(rand.NewSource(1))
	// Drive meetings over real TCP until the 8 nodes converge on depth 2+.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		a := rng.Intn(len(nodes))
		b := rng.Intn(len(nodes) - 1)
		if b >= a {
			b++
		}
		nodes[a].Exchange(addr.Addr(b))
		sum := 0
		for _, n := range nodes {
			sum += n.Path().Len()
		}
		if float64(sum)/float64(len(nodes)) >= 2 {
			break
		}
	}
	sum := 0
	for _, n := range nodes {
		sum += n.Path().Len()
	}
	if float64(sum)/float64(len(nodes)) < 2 {
		t.Fatalf("TCP cluster did not reach depth 2 (avg %.2f)", float64(sum)/8)
	}

	// Queries over TCP must route to comparable paths.
	for i := 0; i < 50; i++ {
		key := bitpath.Random(rng, 4)
		start := nodes[rng.Intn(len(nodes))]
		res := start.Query(key)
		if !res.Found {
			continue
		}
		var resp *Node
		for _, n := range nodes {
			if n.Addr() == res.Peer {
				resp = n
			}
		}
		if !bitpath.Comparable(resp.Path(), key) {
			t.Fatalf("query %s ended at %q", key, resp.Path())
		}
	}
}

func TestTCPApplyGetRoundTrip(t *testing.T) {
	nodes, tr, stop := startPooledCluster(t, 2, PoolConfig{})
	defer stop()
	_ = nodes

	e := store.Entry{Key: bitpath.MustParse("01"), Name: "f", Holder: 1, Version: 2}
	resp, err := tr.Call(1, &wire.Message{Kind: wire.KindApply, From: 0, Apply: &wire.ApplyReq{Entries: []store.Entry{e}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.ApplyResp.Changed {
		t.Error("apply over TCP reported unchanged")
	}
	got, err := tr.Call(1, &wire.Message{Kind: wire.KindGet, From: 0, Get: &wire.GetReq{Key: e.Key, Name: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.GetResp.Found || got.GetResp.Entry != e {
		t.Errorf("get over TCP = %+v", got.GetResp)
	}
}

// TestServerAnswersHandlerPanic: a handler that panics costs its caller a
// KindError and nothing else — the connection, the worker and the process
// serve the next request, and the panic is counted under the request's kind.
func TestServerAnswersHandlerPanic(t *testing.T) {
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	tel := telemetry.New(0)
	n.SetTelemetry(tel)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(n, ln)
	defer srv.Close()
	client, server := net.Pipe()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	srv.handle = func(m *wire.Message) *wire.Message {
		if m.Kind == wire.KindScan {
			panic("handler bug")
		}
		return n.Handle(m)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveBinary(server)
	}()
	call := func(seq uint32, kind wire.Kind) *wire.Message {
		t.Helper()
		if err := wire.WriteFrame(client, seq, 0, &wire.Message{Kind: kind, From: addr.Nil}); err != nil {
			t.Fatal(err)
		}
		got, flags, resp, err := wire.ReadFrame(client)
		if err != nil || got != seq || flags&wire.FlagResponse == 0 {
			t.Fatalf("%v request %d: frame %d flags %d, err %v", kind, seq, got, flags, err)
		}
		return resp
	}
	if resp := call(1, wire.KindScan); resp.Kind != wire.KindError || !strings.Contains(resp.Error, "handler bug") {
		t.Errorf("panicking handler answered %+v, want a KindError naming the panic", resp)
	}
	survivor := waitIdle(t, srv, 1)[0] // the worker the handler panicked on is parked, not dead
	if resp := call(2, wire.KindInfo); resp.InfoResp == nil {
		t.Errorf("request after the panic answered %+v, want the node's info", resp)
	}
	if again := waitIdle(t, srv, 1)[0]; again != survivor {
		t.Errorf("the request after the panic was served by a new worker")
	}
	if v := counterVal(t, tel, `pgrid_rpc_served_panics_total{kind="scan"}`); v != 1 {
		t.Errorf("pgrid_rpc_served_panics_total{kind=scan} = %d, want 1", v)
	}
	client.Close()
	<-done
}

func TestTCPOfflineNodeDropsConnections(t *testing.T) {
	nodes, tr, stop := startPooledCluster(t, 2, PoolConfig{})
	defer stop()
	nodes[1].SetOnline(false)
	_, err := tr.Call(1, &wire.Message{Kind: wire.KindInfo, From: 0})
	if !errors.Is(err, ErrOffline) {
		t.Fatalf("offline node: err = %v, want ErrOffline", err)
	}
}

func TestTCPClientProtocols(t *testing.T) {
	// The multi-replica client protocols (publish, majority read, the walk)
	// over real TCP connections.
	nodes, tr, stop := startPooledCluster(t, 6, PoolConfig{})
	defer stop()

	rng := rand.New(rand.NewSource(9))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		a := rng.Intn(len(nodes))
		b := rng.Intn(len(nodes) - 1)
		if b >= a {
			b++
		}
		nodes[a].Exchange(addr.Addr(b))
		sum := 0
		for _, n := range nodes {
			sum += n.Path().Len()
		}
		if sum >= 2*len(nodes) {
			break
		}
	}

	cl := NewClient(tr, 99)
	all := make([]addr.Addr, len(nodes))
	for i, n := range nodes {
		all[i] = n.Addr()
	}
	e := store.Entry{Key: bitpath.MustParse("10"), Name: "tcp-item", Holder: 4, Version: 1}
	replicas, msgs := cl.Publish(all[:2], e, 3, 2)
	if replicas == 0 || msgs == 0 {
		t.Fatalf("publish over TCP: replicas=%d msgs=%d", replicas, msgs)
	}
	res := cl.MajorityRead(all, e.Key, "tcp-item", 1, 32)
	if !res.Found || res.Entry.Holder != 4 {
		t.Fatalf("majority read over TCP = %+v", res)
	}
	// A peer nobody references yet is not on another's walk: start one at
	// every peer, as the operator's -peers list would.
	for _, a := range all {
		walk := cl.Walk(a, wire.ObserveReq{})
		if !slices.Contains(walk.Reached, a) || len(walk.Unreachable) != 0 {
			t.Fatalf("walk from %v reached %v, unreachable %v", a, walk.Reached, walk.Unreachable)
		}
		if len(walk.Violations) != 0 {
			t.Fatalf("walk violations over TCP: %v", walk.Violations)
		}
	}
}

func TestTCPNodeMaintain(t *testing.T) {
	nodes, _, stop := startPooledCluster(t, 4, PoolConfig{})
	defer stop()
	// Converge the 4 nodes to depth ≥ 1, then take one referenced node
	// offline and let maintenance drop it over TCP.
	rng := rand.New(rand.NewSource(10))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && nodes[0].Path().Len() == 0 {
		b := rng.Intn(3) + 1
		nodes[0].Exchange(addr.Addr(b))
	}
	if nodes[0].Path().Len() == 0 {
		t.Skip("node 0 did not specialize in time")
	}
	refs := nodes[0].Peer().RefsAt(1).Sorted()
	if len(refs) == 0 {
		t.Skip("no level-1 references")
	}
	nodes[refs[0]].SetOnline(false)
	r := NewRepairer(nodes[0], time.Second, RepairConfig{Budget: 64}, 10)
	r.Tick()
	st := r.Status()
	checkDeadRefHandled(t, nodes[0], st, 1, refs[0], len(refs) > 1)
	if st.Rounds != 1 || st.Messages == 0 {
		t.Fatalf("repair round over TCP: %+v", st)
	}
}

func TestTCPUnknownEndpoint(t *testing.T) {
	tr := NewPoolTransport(PoolConfig{})
	defer tr.Close()
	if _, err := tr.Call(99, &wire.Message{Kind: wire.KindInfo}); !errors.Is(err, ErrOffline) {
		t.Fatalf("unknown endpoint: err = %v, want ErrOffline", err)
	}
}

func TestTCPUnreachableEndpoint(t *testing.T) {
	tr := NewPoolTransport(PoolConfig{DialTimeout: 200 * time.Millisecond})
	defer tr.Close()
	// A listener we immediately close: dialing must fail cleanly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := ln.Addr().String()
	ln.Close()
	tr.SetEndpoint(7, ep)
	if _, err := tr.Call(7, &wire.Message{Kind: wire.KindInfo}); !errors.Is(err, ErrOffline) {
		t.Fatalf("dead endpoint: err = %v, want ErrOffline", err)
	}
	if st := tr.Stats(); st.Dials != 0 || st.Open != 0 {
		t.Errorf("a refused connect counted as a dial: %+v", st)
	}
}
