package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/raceflag"
	"pgrid/internal/sim"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// echoServer speaks the binary frame protocol and answers every KindGet
// with the request's Name — a per-call nonce — except names starting with
// "hold", which it never answers.
type echoServer struct {
	ln    net.Listener
	held  atomic.Int64
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serve(conn)
		}
	}()
	return s
}

func (s *echoServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		seq, _, m, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		resp := &wire.Message{Kind: wire.KindError, Error: "the echo server answers only get"}
		if m.Kind == wire.KindGet {
			if strings.HasPrefix(m.Get.Name, "hold") {
				s.held.Add(1)
				continue
			}
			resp = echoReply(m.Get.Name)
		}
		if wire.WriteFrame(conn, seq, wire.FlagResponse, resp) != nil {
			return
		}
	}
}

// getNonce is a KindGet whose name the echo servers answer with.
func getNonce(name string) *wire.Message {
	return &wire.Message{Kind: wire.KindGet, From: addr.Nil, Get: &wire.GetReq{Name: name}}
}

func echoReply(name string) *wire.Message {
	return &wire.Message{Kind: wire.KindGetResp,
		GetResp: &wire.GetResp{Found: true, Entry: store.Entry{Name: name}}}
}

// dropConns closes every accepted connection, as a crashing peer would.
func (s *echoServer) dropConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

func (s *echoServer) stop() {
	s.ln.Close()
	s.dropConns()
	s.wg.Wait()
}

// TestPoolSlotReuseAfterTimeoutAndKill: call slots are pooled, so a slot
// freed by a call that timed out, or whose connection died under it, goes
// to a later call. No later call may then see a reply or a failure that
// was meant for the slot's previous owner.
func TestPoolSlotReuseAfterTimeoutAndKill(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := startEchoServer(t)
	pt := NewPoolTransport(PoolConfig{DialTimeout: 2 * time.Second, IOTimeout: 250 * time.Millisecond, Size: 2})
	pt.SetEndpoint(0, srv.ln.Addr().String())

	get := func(name string) (*wire.Message, error) {
		return pt.Call(0, getNonce(name))
	}
	// hold runs n calls the server never answers and returns their errors.
	hold := func(n int, whileHeld func()) []error {
		want := srv.held.Load() + int64(n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = get(fmt.Sprintf("hold-%d", i))
			}(i)
		}
		for srv.held.Load() < want {
			time.Sleep(time.Millisecond)
		}
		whileHeld()
		wg.Wait()
		return errs
	}

	// 1. Responses that miss IOTimeout: the reader's deadline kills the
	// connection and every call in flight on it fails Transient with the
	// timeout.
	for _, err := range hold(4, func() {}) {
		if !errors.Is(err, ErrOffline) || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("held call error = %v, want an ErrOffline timeout", err)
		}
	}
	// 2. Connections dying with calls in flight.
	for _, err := range hold(4, srv.dropConns) {
		if !errors.Is(err, ErrOffline) {
			t.Fatalf("call on a dropped connection: error = %v, want ErrOffline", err)
		}
	}
	if st := pt.Stats(); st.ConnLost < 2 {
		t.Errorf("ConnLost = %d, want the timed-out and the dropped connections counted", st.ConnLost)
	}

	// 3. The same pool, the freed slots: every call gets its own nonce back.
	const calls, workers = 10000, 16
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > calls {
					return
				}
				nonce := fmt.Sprintf("n-%d", i)
				resp, err := get(nonce)
				if err != nil {
					t.Errorf("call %s: %v (a failure left over from the slot's previous owner?)", nonce, err)
					return
				}
				if resp.GetResp == nil || resp.GetResp.Entry.Name != nonce {
					t.Errorf("call %s received %+v: another call's reply", nonce, resp.GetResp)
					return
				}
			}
		}()
	}
	wg.Wait()

	pt.Close()
	srv.stop()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestAllocBudgetPoolRoundTrip: one warm read-carrying query through the
// instrumented pooled transport to a loopback Server that is itself
// responsible — client and server side together, both run in this process —
// allocates one object: the client's decoded reply, which holds the entry's
// key and name (1; the responsible peer's path is empty here). The server
// decodes the request — the Message, QueryReq and GetReq, the read's key and
// name, the routed key cut from them — into a room it reuses, and answers in
// the same room: the reply and its QueryResp (0); this server forwards
// nothing. An object per served request, a goroutine or closure per served
// request, a second object per frame, a key or name decoded into its own
// string, a reply allocated beside its request, a per-call channel, timer,
// label string or escaping frame header pushes it over.
func TestAllocBudgetPoolRoundTrip(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{Size: 1})
	defer stop()
	tel := telemetry.New(0)
	tel.EnableExemplars(0.99)
	nodes[0].SetTelemetry(tel)
	pt.SetTelemetry(tel)
	tr := InstrumentTransport(pt, tel)
	e := store.Entry{Key: "0101", Name: "f", Holder: 3, Version: 4}
	nodes[0].Store().Apply(e)
	req := &wire.Message{Kind: wire.KindQuery, From: addr.Nil,
		Query: &wire.QueryReq{Key: e.Key, Read: &wire.GetReq{Key: e.Key, Name: e.Name}}}
	call := func() {
		if resp, err := tr.Call(0, req); err != nil || !resp.QueryResp.Has || resp.QueryResp.Entry != e {
			t.Fatalf("read = %+v, %v", resp, err)
		}
	}
	call() // dial, start a worker, register instruments
	const budget = 1
	if got := testing.AllocsPerRun(500, call); got > budget {
		t.Errorf("warm pooled round trip = %.1f allocs, budget %d", got, budget)
	} else {
		t.Logf("warm pooled round trip = %.1f allocs", got)
	}
}

// TestAllocBudgetRoutedLookup: warm lookups walked through a 64-peer loopback
// community, transplanted from a simulator grid, over the instrumented pooled
// transport cost at most 1.26 allocations per message — a quarter above the
// 1.00–1.02 measured — both sides of every visit and the client together. A
// visit is decoded by its receiver into a room the receiver's server reuses,
// which holds the read's key and name, the routed key cut from them, and the
// reply the receiver answers in, the references in its room (0); its answer
// is decoded into one object that holds the entry's key and name, which the
// responsible peer's path is cut from, or the references (1); the client
// fills its one call for every visit and walks in its own frame (0). A room
// made for a burst beyond the free list adds the rest.
func TestAllocBudgetRoutedLookup(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	cfg := core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
	built, err := sim.Build(sim.Options{N: 64, Config: cfg, Seed: 11})
	if err != nil || !built.Converged {
		t.Fatalf("construction: converged=%v, %v", built.Converged, err)
	}
	pt := NewPoolTransport(PoolConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel() // closes every server
		pt.Close()
	}()
	var all []addr.Addr
	var nodes []*Node
	for _, p := range built.Dir.All() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New(0)
		tel.EnableExemplars(0.99)
		n := New(p.Addr(), cfg, InstrumentTransport(pt, tel), int64(p.Addr()))
		n.SetTelemetry(tel)
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		pt.SetEndpoint(p.Addr(), ln.Addr().String())
		go NewServer(n, ln).Serve(ctx)
		all, nodes = append(all, p.Addr()), append(nodes, n)
	}
	storeFixture(nodes)
	tel := telemetry.New(0)
	pt.SetTelemetry(tel)
	cl := NewClient(InstrumentTransport(pt, tel), 5)

	rng := rand.New(rand.NewSource(6))
	keys := make([]bitpath.Path, 1<<cfg.MaxL)
	for v := range keys {
		keys[v] = bitpath.FromUint(uint64(v), cfg.MaxL)
	}
	lookups := func(n int) (messages int) {
		for i := 0; i < n; i++ {
			res := cl.Lookup(all[rng.Intn(len(all))], keys[rng.Intn(len(keys))], "f")
			if !res.Found {
				t.Fatalf("lookup %d: %+v", i, res)
			}
			messages += res.Messages
		}
		return messages
	}
	lookups(4000) // dial the connections the routes use, park workers, register instruments
	const measured, budget = 2000, 1.26
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	messages := lookups(measured)
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(messages)
	t.Logf("routed lookup = %.2f allocs per message over %.2f messages per lookup", perMsg, float64(messages)/measured)
	if perMsg > budget {
		t.Errorf("routed lookup = %.2f allocs per message, budget %.2f", perMsg, budget)
	}
}

// TestSearchMakesNoNodeDial: 1 000 lookups walked over TCP through a 64-peer
// community, transplanted from a simulator grid and each node with a pool of
// its own, are carried by the client's pool alone: every visit is answered
// from the visited node's own state, so no node dials, or holds, a connection
// to route a search.
func TestSearchMakesNoNodeDial(t *testing.T) {
	cfg := core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
	built, err := sim.Build(sim.Options{N: 64, Config: cfg, Seed: 11})
	if err != nil || !built.Converged {
		t.Fatalf("construction: converged=%v, %v", built.Converged, err)
	}
	client := NewPoolTransport(PoolConfig{})
	pools := []*PoolTransport{client}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel() // closes every server
		for _, pt := range pools {
			pt.Close()
		}
	}()
	var all []addr.Addr
	var nodes []*Node
	endpoints := map[addr.Addr]string{}
	for _, p := range built.Dir.All() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pt := NewPoolTransport(PoolConfig{})
		n := New(p.Addr(), cfg, pt, int64(p.Addr()))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		go NewServer(n, ln).Serve(ctx)
		endpoints[p.Addr()] = ln.Addr().String()
		all, nodes, pools = append(all, p.Addr()), append(nodes, n), append(pools, pt)
	}
	for _, pt := range pools {
		for a, ep := range endpoints {
			pt.SetEndpoint(a, ep)
		}
	}
	storeFixture(nodes)
	cl := NewClient(client, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		if res := cl.Lookup(all[rng.Intn(len(all))], bitpath.FromUint(uint64(rng.Intn(1<<cfg.MaxL)), cfg.MaxL), "f"); !res.Found {
			t.Fatalf("lookup %d: %+v", i, res)
		}
	}
	for i, pt := range pools[1:] {
		if st := pt.Stats(); st.Dials != 0 || st.Open != 0 {
			t.Errorf("node %d's pool dialled %d connections and holds %d", i, st.Dials, st.Open)
		}
	}
	if st := client.Stats(); st.Open == 0 {
		t.Errorf("the client's pool holds no connection after 1000 lookups: %+v", st)
	}
}

// TestFootprintBudgetIdleConn: what a peer that has been talked to keeps
// alive, both ends together — this process runs the dialling pool and the
// accepting server. 512 peers of one pool, all served by one listener, take
// three overlapping calls each — two info requests and a routed query carrying
// a read and a trace context — and then sit idle; the live heap and the
// goroutine stacks the process gained, per peer, stay under a budget set a
// quarter above what this measures in a fresh process (after other tests it
// reads lower: their dead goroutines are reused). A peer costs one connection,
// and each end of it a socket and a frame reader (frameReadBuffer bytes); the
// dialling end adds the muxConn with its pending map, the accepting end its
// binConn and the one goroutine that parks reading it, on the runtime's
// smallest stack: it reads bytes and runs no decoder (serveBinary). The
// dialling end parks none: its callers read (muxConn.read). A default-sized
// read buffer per end (+7.7 kB), a second stream dialled because the first was
// in use (× 2), a parked reader per dialled connection (+4.5 kB) or a decoder
// run on the accepting end's reader (its stack doubled, +2 kB) pushes it over.
func TestFootprintBudgetIdleConn(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what objects and stacks cost")
	}
	const (
		peers       = 512
		heapBudget  = 3300 // bytes per peer; measured 2 600
		stackBudget = 2800 // bytes per peer; measured 2 048–2 240
	)
	h, stopSrv := startHeldServer(t)
	defer stopSrv()
	pt := NewPoolTransport(PoolConfig{Size: 2})
	defer pt.Close()
	// talk puts three calls to the peer in flight together, then lets the
	// server answer them. The routed query's read and trace context are the
	// longest decode a request takes.
	key := bitpath.FromUint(5, 4)
	talk := func(to addr.Addr) {
		t.Helper()
		var wg sync.WaitGroup
		for i := int64(1); i <= 3; i++ {
			m := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
			if i == 3 {
				m = new(wire.QueryCall).Fill(addr.Nil, key, 0,
					&trace.SpanContext{TraceID: uint64(to) + 1, Parent: 7, Sampled: true},
					&wire.GetReq{Key: key, Name: "f"})
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := pt.Call(to, m); err != nil {
					t.Error(err)
				}
			}()
			h.waitHolding(t, i)
		}
		for i := 0; i < 3; i++ {
			h.release <- struct{}{}
		}
		wg.Wait()
	}
	measure := func() (heap, stack int64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle finishes what the first left to sweep
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), int64(ms.StackInuse)
	}
	// Everything sized by the community, not by the peers talked to, is in
	// place before the baseline: the endpoint and pool maps, parked workers.
	for to := addr.Addr(0); to <= peers; to++ {
		pt.SetEndpoint(to, h.ln.Addr().String())
		pt.pool(to)
	}
	talk(0)
	heap0, stack0 := measure()
	for to := addr.Addr(1); to <= peers; to++ {
		talk(to)
	}
	heap1, stack1 := measure()
	if st := pt.Stats(); st.Open != peers+1 || st.Dials != peers+1 {
		t.Fatalf("stats = %+v, want one connection per peer: %d dialled and open", st, peers+1)
	}
	heap, stack := (heap1-heap0)/peers, (stack1-stack0)/peers
	t.Logf("idle pooled connection, both ends: %d B heap + %d B stack = %d B (%d peers, %d-byte frame readers)",
		heap, stack, heap+stack, peers, frameReadBuffer)
	if heap > heapBudget || stack > stackBudget {
		t.Errorf("idle pooled connection costs %d B heap (budget %d) + %d B stack (budget %d), both ends",
			heap, heapBudget, stack, stackBudget)
	}
}

// TestFootprintBudgetPeerState: what a node holds beside its connections,
// built as cmd/pgridnode and the benchmark build one — its own instruments
// with tail exemplars, a 256-trace flight recorder, a transport whose address
// book names a 257-peer community — after a few hundred routed queries have
// registered and filled its per-kind latency histograms. The calls ride a
// LocalTransport, so no connection is counted (TestFootprintBudgetIdleConn
// prices those). The heap the process gained, per node, stays under a budget
// set a quarter above what this measures: its paper state, store, telemetry
// and the book. Latency histograms allocated over their whole range (+28 kB,
// and +15 kB for their exemplar ids) or a flight recorder that allocates its
// ring before the first trace (+18.7 kB) push it over.
func TestFootprintBudgetPeerState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what objects cost")
	}
	const (
		peers     = 64
		community = 257
		budget    = 46500 // bytes per node; measured 37 200
	)
	cfg := core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
	built, err := sim.Build(sim.Options{N: peers, Config: cfg, Seed: 11})
	if err != nil || !built.Converged {
		t.Fatalf("construction: converged=%v, %v", built.Converged, err)
	}
	endpoints := make([]string, community) // one copy, as a process parses them once
	for i := range endpoints {
		endpoints[i] = fmt.Sprintf("127.0.0.1:%d", 20000+i)
	}
	local := NewLocalTransport()
	cl := NewClient(local, 5)
	rng := rand.New(rand.NewSource(6))
	keys := make([]bitpath.Path, 1<<cfg.MaxL)
	for v := range keys {
		keys[v] = bitpath.FromUint(uint64(v), cfg.MaxL)
	}
	measure := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle finishes what the first left to sweep
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	heap0 := measure()
	var (
		all   []addr.Addr
		nodes []*Node
		pools []*PoolTransport
	)
	for _, p := range built.Dir.All() {
		tel := telemetry.New(int(p.Addr()))
		tel.EnableExemplars(0.99)
		pt := NewPoolTransport(PoolConfig{})
		pt.SetTelemetry(tel)
		for a, ep := range endpoints {
			pt.SetEndpoint(addr.Addr(a), ep)
		}
		n := New(p.Addr(), cfg, InstrumentTransport(local, tel), int64(p.Addr()))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		n.SetTelemetry(tel)
		n.EnableTracing(trace.NewRecorder(256), 0.01)
		n.EnableHealth()
		local.Register(n)
		all, nodes, pools = append(all, p.Addr()), append(nodes, n), append(pools, pt)
	}
	defer func() {
		for _, pt := range pools {
			pt.Close()
		}
	}()
	storeFixture(nodes)
	for i := 0; i < 400; i++ {
		if res := cl.Lookup(all[rng.Intn(len(all))], keys[rng.Intn(len(keys))], "f"); !res.Found {
			t.Fatalf("lookup %d: %+v", i, res)
		}
	}
	per := (measure() - heap0) / peers
	runtime.KeepAlive(nodes)
	runtime.KeepAlive(built)
	t.Logf("a node beside its connections: %d B heap (%d nodes, %d-peer address book)", per, peers, community)
	if per > budget {
		t.Errorf("a node holds %d B heap beside its connections, budget %d", per, budget)
	}
}
