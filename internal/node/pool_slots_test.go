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
			resp = &wire.Message{Kind: wire.KindGetResp,
				GetResp: &wire.GetResp{Found: true, Entry: store.Entry{Name: m.Get.Name}}}
		}
		if wire.WriteFrame(conn, seq, wire.FlagResponse, resp) != nil {
			return
		}
	}
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
		return pt.Call(0, &wire.Message{Kind: wire.KindGet, From: addr.Nil, Get: &wire.GetReq{Name: name}})
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

	// 1. Responses that miss IOTimeout: the watchdog kills the connection
	// and every call in flight on it fails Transient with the timeout.
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
// allocates one object at each end: the server's decoded request, which holds
// the Message, QueryReq and GetReq, the read's key and name (the routed key
// cut from them) and the room the query is answered in — the reply, its
// QueryResp and the call it would forward in (1) — and the client's decoded
// reply, which holds the entry's key and name (1; the responsible peer's path
// is empty here). A goroutine or closure per served request, a second object
// per frame, a key or name decoded into its own string, a reply allocated
// beside its request, a per-call channel, timer, label string or escaping
// frame header pushes it over.
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
	const budget = 2
	if got := testing.AllocsPerRun(500, call); got > budget {
		t.Errorf("warm pooled round trip = %.1f allocs, budget %d", got, budget)
	} else {
		t.Logf("warm pooled round trip = %.1f allocs", got)
	}
}

// TestAllocBudgetRoutedLookup: warm lookups routed through a 64-peer loopback
// community, transplanted from a simulator grid, over the instrumented pooled
// transport cost at most 3 allocations per message, every hop's two sides and
// the client together. A message is one object at each end: decoded by its
// receiver into one object that holds the read's key and name, which the
// routed key is cut from, and the room the receiver answers in and forwards
// from (1), and its answer decoded into one object that holds the entry's key
// and name, which the responsible peer's path is cut from (1); the client adds
// its one request object per lookup (1/3 per message at three messages a
// lookup).
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
	const measured, budget = 2000, 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	messages := lookups(measured)
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(messages)
	t.Logf("routed lookup = %.2f allocs per message over %.2f messages per lookup", perMsg, float64(messages)/measured)
	if perMsg > budget {
		t.Errorf("routed lookup = %.2f allocs per message, budget %d", perMsg, budget)
	}
}

// TestFootprintBudgetIdleConn: what a peer that has been talked to keeps
// alive, both ends together — this process runs the dialling pool and the
// accepting server. 512 peers of one pool, all served by one listener, take
// two overlapping calls each and then sit idle; the live heap and the
// goroutine stacks the process gained, per peer, stay under a budget set a
// quarter above what this measures in a fresh process (after other tests it
// reads lower: their dead goroutines are reused). A peer costs one connection,
// and each end of it a socket, a frame reader (frameReadBuffer bytes) and one
// parked reader goroutine; the dialling end adds the muxConn with its pending
// map and watchdog timer, the accepting end its binConn. A default-sized read
// buffer per end (+7.7 kB), a second stream dialled because the first was in
// use (× 2) or a third goroutine per connection pushes it over.
func TestFootprintBudgetIdleConn(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what objects and stacks cost")
	}
	const (
		peers       = 512
		heapBudget  = 3900  // bytes per peer; measured 3 100
		stackBudget = 10300 // bytes per peer; measured 8 200
	)
	h, stopSrv := startHeldServer(t)
	defer stopSrv()
	pt := NewPoolTransport(PoolConfig{Size: 2})
	defer pt.Close()
	// talk puts two calls to the peer in flight together, then lets the
	// server answer both.
	talk := func(to addr.Addr) {
		t.Helper()
		var wg sync.WaitGroup
		for i := int64(1); i <= 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := pt.Call(to, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
					t.Error(err)
				}
			}()
			h.waitHolding(t, i)
		}
		h.release <- struct{}{}
		h.release <- struct{}{}
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
