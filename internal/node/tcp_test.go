package node

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
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

// emfileListener fails its first Accepts the way a process out of file
// descriptors does, then accepts.
type emfileListener struct {
	net.Listener
	fails atomic.Int32 // Accepts left to fail; below zero, how many have accepted
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(),
			Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeRetriesFailedAccept: a failed Accept — EMFILE, which a stranger who
// opens connections until the process runs out of descriptors can cause — does
// not end Serve. The server accepts again after a backoff and answers a Lookup,
// and Serve returns nil only once its context is cancelled, leaving no
// goroutine behind.
func TestServeRetriesFailedAccept(t *testing.T) {
	before := runtime.NumGoroutine()
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	storeFixture([]*Node{n})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &emfileListener{Listener: inner}
	ln.fails.Store(3)
	srv := NewServer(n, ln)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	pt := NewPoolTransport(PoolConfig{})
	pt.SetEndpoint(0, inner.Addr().String())

	res := NewClient(pt, 5).Lookup(0, bitpath.FromUint(5, 4), "f")
	if !res.Found || res.Replica != 0 {
		t.Errorf("lookup through a server whose first three Accepts failed = %+v", res)
	}
	if left := ln.fails.Load(); left >= 0 {
		t.Errorf("Accept called %d times, want the three that fail and one that accepts", 3-left)
	}
	pt.Close()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve after cancel = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its context was cancelled")
	}
	waitGoroutines(t, before)
}

// TestIdleServerAndPoolParkOneGoroutine: a started, idle server and a pooled
// transport add one goroutine between them, the accept loop. Nothing waits
// only for a signal: the server stops on its context through
// context.AfterFunc and the pool's janitor is a timer. Closing both leaves
// none.
func TestIdleServerAndPoolParkOneGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(n, ln)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	pt := NewPoolTransport(PoolConfig{})
	waitGoroutines(t, before+1)
	if got := runtime.NumGoroutine(); got != before+1 {
		t.Errorf("an idle server and pool run %d goroutines beside the %d before, want 1 (the accept loop)", got-before, before)
	}
	pt.Close()
	cancel()
	if err := <-served; err != nil {
		t.Errorf("Serve = %v", err)
	}
	waitGoroutines(t, before)
}

// TestServerCorruptBodyDropsItsConnection: a frame whose header passes but
// whose body does not decode drops its own connection at the worker that
// decodes it, and nothing else. A valid frame is answered before and after on
// another connection, the room the corrupt body was decoded into is free
// again, and closing the server leaves no goroutine.
func TestServerCorruptBodyDropsItsConnection(t *testing.T) {
	before := runtime.NumGoroutine()
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	srv, _, stop := startServer(t, n)
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		return c
	}
	call := func(c net.Conn, seq uint32) {
		t.Helper()
		if err := wire.WriteFrame(c, seq, 0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
			t.Fatal(err)
		}
		got, flags, resp, err := wire.ReadFrame(c)
		if err != nil || got != seq || flags&wire.FlagResponse == 0 || resp.InfoResp == nil {
			t.Fatalf("request %d: frame %d flags %d %+v, err %v", seq, got, flags, resp, err)
		}
	}
	freeRooms := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.rooms)
	}
	// waitRooms waits until the one room the requests so far were decoded
	// into is free again.
	waitRooms := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); freeRooms() != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d rooms free, want the one the requests were decoded into", when, freeRooms())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	good, bad := dial(), dial()
	defer good.Close()
	defer bad.Close()
	call(good, 1)
	waitRooms("after a valid frame")

	// A valid info request with a byte of trailing garbage in its body.
	frame, err := wire.AppendFrame(nil, 2, 0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, 0xff)
	binary.BigEndian.PutUint32(frame[9:13], uint32(len(frame)-wire.HeaderSize))
	if _, err := bad.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, resp, err := wire.ReadFrame(bad); err == nil {
		t.Errorf("a corrupt body was answered %+v; want its connection dropped", resp)
	}
	// The worker frees the room before it closes the connection.
	if got := freeRooms(); got != 1 {
		t.Errorf("%d rooms free after the corrupt body, want 1", got)
	}
	call(good, 3)
	waitRooms("after the corrupt body")
	stop()
	waitGoroutines(t, before)
}

// TestServerStalledClaim: a header's claim costs a server nothing until its
// bytes arrive. 40 connections each send a header claiming MaxFrameSize and
// one body byte, then stall; while their readers wait for the rest, the
// server's heap has grown by at most 80 kB per connection — one 64 kB body
// chunk and the connection — not the 16 MB each claimed.
func TestServerStalledClaim(t *testing.T) {
	const (
		conns   = 40
		perConn = 80 << 10
		chunk   = 64 << 10 // what each reader holds once its body byte is in
	)
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	srv, _, stop := startServer(t, n)
	defer stop()
	measure := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle finishes what the first left to sweep
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	claim := []byte{'P', 'G', wire.BinaryVersion, byte(wire.KindInfo), 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	binary.BigEndian.PutUint32(claim[9:13], wire.MaxFrameSize)
	heap0 := measure()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(claim); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for every reader to hold its chunk; a server that holds less
	// passes all the same once the wait runs out.
	grew := measure() - heap0
	for deadline := time.Now().Add(3 * time.Second); grew < conns*chunk && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		grew = measure() - heap0
	}
	t.Logf("%d stalled %d-byte claims: the heap grew %d B, %d B per connection", conns, wire.MaxFrameSize, grew, grew/conns)
	if grew > conns*perConn {
		t.Errorf("%d stalled claims grew the heap %d B, want ≤ %d", conns, grew, conns*perConn)
	}
}
