package node

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/resilience"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// startPooledCluster launches n nodes, each served on a loopback listener,
// all routing their own traffic through one shared PoolTransport.
func startPooledCluster(t *testing.T, n int, cfg PoolConfig) ([]*Node, *PoolTransport, func()) {
	t.Helper()
	pt := NewPoolTransport(cfg)
	nodes := make([]*Node, n)
	servers := make([]*Server, n)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = New(addr.Addr(i), smallCfg(), pt, int64(2000+i))
		servers[i] = NewServer(nodes[i], ln)
		pt.SetEndpoint(addr.Addr(i), ln.Addr().String())
		go servers[i].Serve(ctx)
	}
	return nodes, pt, func() {
		cancel()
		for _, s := range servers {
			s.Close()
		}
		pt.Close()
	}
}

func TestPoolReusesConnections(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	const calls = 20
	for i := 0; i < calls; i++ {
		resp, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
		if err != nil {
			t.Fatal(err)
		}
		if resp.InfoResp == nil || resp.InfoResp.Addr != 0 {
			t.Fatalf("call %d: %+v", i, resp)
		}
	}
	st := pt.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d, want 1 (every later call reuses)", st.Dials)
	}
	if st.Reuses != calls-1 {
		t.Errorf("reuses = %d, want %d", st.Reuses, calls-1)
	}
	if st.Open != 1 {
		t.Errorf("open = %d, want 1", st.Open)
	}
}

// TestPoolMultiplexesConcurrentCalls pins the core mux property: with
// Size 1, many concurrent callers share the single warm connection (no
// per-call dials) and every one of them gets its own response back.
func TestPoolMultiplexesConcurrentCalls(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 1})
	defer stop()

	e := store.Entry{Key: bitpath.MustParse("01"), Name: "x", Holder: 3, Version: 1}
	if !nodes[0].Store().Apply(e) {
		t.Fatal("seed apply failed")
	}
	// Warm the pool so the herd below can never be first-caller dials.
	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := pt.Call(0, &wire.Message{Kind: wire.KindGet, From: addr.Nil,
					Get: &wire.GetReq{Key: e.Key, Name: "x"}})
				if err != nil {
					errs <- err
					return
				}
				if resp.GetResp == nil || !resp.GetResp.Found || resp.GetResp.Entry != e {
					errs <- fmt.Errorf("mux returned wrong payload: %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pt.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d, want 1: %d concurrent calls must multiplex, not dial", st.Dials, workers*perWorker)
	}
	if st.Reuses != workers*perWorker {
		t.Errorf("reuses = %d, want %d", st.Reuses, workers*perWorker)
	}
}

// heldServer is a Server on a loopback listener whose handler holds every
// request until the test releases it — one per value sent on release, all of
// them once it is closed — and counts the requests it is holding, so a test
// can put an exact number of calls in flight on a pooled connection.
type heldServer struct {
	ln      *countingListener
	holding atomic.Int64
	release chan struct{}
}

func startHeldServer(t *testing.T) (*heldServer, func()) {
	t.Helper()
	h := &heldServer{release: make(chan struct{})}
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	var stop func()
	h.ln, stop = startCountedServer(t, n, func(m *wire.Message) *wire.Message {
		h.holding.Add(1)
		<-h.release
		h.holding.Add(-1)
		return n.Handle(m)
	})
	return h, stop
}

// waitHolding waits until the server holds exactly n requests.
func (h *heldServer) waitHolding(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); h.holding.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d requests, want %d", h.holding.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPoolGrowsToSizeUnderSaturation pins the Size semantics: Size is a cap,
// and the pool grows towards it on saturation, not on use. Calls that overlap
// on a peer share its one stream; only when every pooled stream carries
// serveBinaryConcurrency calls — the point at which the server stops reading
// it — does the next call dial another; and a full pool shares its streams and
// never exceeds Size.
func TestPoolGrowsToSizeUnderSaturation(t *testing.T) {
	h, stopSrv := startHeldServer(t)
	defer stopSrv()
	pt := NewPoolTransport(PoolConfig{DialTimeout: 2 * time.Second, IOTimeout: 10 * time.Second, Size: 2})
	defer pt.Close()
	pt.SetEndpoint(0, h.ln.Addr().String())

	var wg sync.WaitGroup
	call := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
				t.Error(err)
			}
		}()
	}
	// hold puts calls in flight one by one until the server holds n of them.
	hold := func(n int64) {
		t.Helper()
		for i := h.holding.Load() + 1; i <= n; i++ {
			call()
			h.waitHolding(t, i)
		}
	}
	check := func(when string, dials, open int64) {
		t.Helper()
		if st := pt.Stats(); st.Dials != dials || st.Open != open {
			t.Errorf("%s: dials = %d, open = %d, want %d and %d", when, st.Dials, st.Open, dials, open)
		}
	}

	hold(8)
	check("8 overlapping calls", 1, 1)
	hold(serveBinaryConcurrency)
	check("one stream at the bound", 1, 1)
	hold(serveBinaryConcurrency + 1)
	check("the call after the bound", 2, 2)
	hold(2 * serveBinaryConcurrency)
	check("both streams at the bound", 2, 2)
	// The pool is at Size: further calls queue on the full streams, unread by
	// the server until it answers what it holds.
	for i := 0; i < 5; i++ {
		call()
	}
	for deadline := time.Now().Add(5 * time.Second); pt.Stats().InFlight < 2*serveBinaryConcurrency+5; {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls in flight, want %d", pt.Stats().InFlight, 2*serveBinaryConcurrency+5)
		}
		time.Sleep(100 * time.Microsecond)
	}
	check("a full pool", 2, 2)
	close(h.release)
	wg.Wait()
	check("every call answered", 2, 2)
	if got := h.ln.accepts.Load(); got != 2 {
		t.Errorf("the server accepted %d connections, want 2", got)
	}
}

// TestPoolColdRaceKeepsOneConnection: first callers that race their dials to
// a cold peer end with one pooled connection. Each saw an empty pool and
// dialled; the first to finish pooled its connection, and admit — by the rule
// pick applies to every later call — has the others share it and closes what
// they dialled.
func TestPoolColdRaceKeepsOneConnection(t *testing.T) {
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	ln, stopSrv := startCountedServer(t, n, nil)
	defer stopSrv()
	pt := NewPoolTransport(PoolConfig{DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer pt.Close()
	pt.SetEndpoint(0, ln.Addr().String())

	const callers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := pt.Stats()
	if st.Open != 1 {
		t.Errorf("open = %d after %d racing first callers (%d dials), want 1", st.Open, callers, st.Dials)
	}
	if st.Dials < 1 || st.Dials > callers || st.Dials+st.Reuses < callers {
		t.Errorf("stats = %+v: every caller dials or shares", st)
	}
	for deadline := time.Now().Add(3 * time.Second); ln.accepts.Load() != st.Dials; {
		if time.Now().After(deadline) {
			t.Fatalf("the peer accepted %d connections, the pool dialled %d", ln.accepts.Load(), st.Dials)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d callers: %d dials, %d shared, 1 pooled", callers, st.Dials, st.Reuses)
}

// TestPoolSizeZeroDefaults: like the other zero fields, Size 0 takes its
// default — two pooled connections per peer — so a zero PoolConfig pools.
func TestPoolSizeZeroDefaults(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{})
	defer stop()

	if pt.cfg.Size != 2 {
		t.Fatalf("zero Size defaulted to %d, want 2", pt.cfg.Size)
	}
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
			t.Fatal(err)
		}
	}
	if st := pt.Stats(); st.Dials != 1 || st.Reuses != calls-1 || st.Open != 1 {
		t.Errorf("stats = %+v, want 1 dial, %d reuses, 1 open", st, calls-1)
	}
}

// countingListener counts the connections its listener accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// startCountedServer serves n on a loopback listener that counts accepts,
// through handle when one is given.
func startCountedServer(t *testing.T, n *Node, handle func(*wire.Message) *wire.Message) (*countingListener, func()) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	srv := NewServer(n, ln)
	if handle != nil {
		srv.handle = handle
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	return ln, func() { cancel(); <-done }
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the test:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolOfflinePeerSingleConnect: calling a peer that accepts and does
// not answer — the common case among peers "online with probability p" —
// costs exactly one TCP connect, which the pool counts as a dial, and
// leaves nothing behind: no pooled connection, no goroutine. Back online,
// the peer answers the next call on a fresh connection.
func TestPoolOfflinePeerSingleConnect(t *testing.T) {
	base := runtime.NumGoroutine()
	n := New(1, smallCfg(), NewLocalTransport(), 1)
	ln, stopSrv := startCountedServer(t, n, nil)
	pt := NewPoolTransport(PoolConfig{DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second})
	pt.SetEndpoint(1, ln.Addr().String())
	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}

	n.SetOnline(false)
	if _, err := pt.Call(1, info); !errors.Is(err, ErrOffline) {
		t.Fatalf("call to an offline peer: err = %v, want an ErrOffline wrap", err)
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Errorf("the offline peer accepted %d connections for one call, want 1", got)
	}
	st := pt.Stats()
	if st.Dials != ln.accepts.Load() {
		t.Errorf("dials = %d, but the peer accepted %d connections", st.Dials, ln.accepts.Load())
	}
	if st.Open != 0 || st.InFlight != 0 {
		t.Errorf("failed call left state behind: %+v", st)
	}

	n.SetOnline(true)
	resp, err := pt.Call(1, info)
	if err != nil || resp.InfoResp == nil || resp.InfoResp.Addr != 1 {
		t.Fatalf("call after the peer came back: %+v, %v", resp, err)
	}
	if got, st := ln.accepts.Load(), pt.Stats(); got != 2 || st.Dials != 2 || st.Open != 1 {
		t.Errorf("recovery: %d accepts, stats %+v; want a second connect, pooled", got, st)
	}

	pt.Close()
	stopSrv()
	waitGoroutines(t, base)
}

// TestServerDropsNonFrameBytes: bytes that do not open with the frame magic
// — a length-prefixed gob frame from before the binary codec, or plain
// noise — get the connection closed with no reply, while a well-formed
// connection to the same server keeps being answered.
func TestServerDropsNonFrameBytes(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{})
	defer stop()
	ep, _ := pt.Endpoint(0)
	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}

	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(info); err != nil {
		t.Fatal(err)
	}
	legacy := append(binary.BigEndian.AppendUint32(nil, uint32(body.Len())), body.Bytes()...)
	noise := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(noise)
	noise[0] = 0x51 // anything but the magic's 0x50

	// The well-formed connection: open before the hostile ones, calling
	// while they come and go, and still the same connection afterwards.
	call := func() error {
		if resp, err := pt.Call(0, info); err != nil || resp.InfoResp == nil {
			return fmt.Errorf("well-formed call: %+v, %v", resp, err)
		}
		return nil
	}
	if err := call(); err != nil {
		t.Fatal(err)
	}
	stopCalls := make(chan struct{})
	callsDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopCalls:
				callsDone <- call()
				return
			default:
			}
			if err := call(); err != nil {
				callsDone <- err
				return
			}
		}
	}()

	for name, payload := range map[string][]byte{"legacy gob frame": legacy, "random bytes": noise} {
		conn, err := net.Dial("tcp", ep)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// Closed with no reply: EOF, or a reset when the server closed
		// with some of the payload still unread — never a byte, never
		// the deadline.
		reply, err := io.ReadAll(conn)
		var ne net.Error
		if len(reply) != 0 || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s: server replied %d bytes (err %v), want the connection closed unanswered", name, len(reply), err)
		}
		conn.Close()
	}

	close(stopCalls)
	if err := <-callsDone; err != nil {
		t.Error(err)
	}
	if st := pt.Stats(); st.Dials != 1 || st.ConnLost != 0 {
		t.Errorf("the well-formed connection was disturbed: %+v", st)
	}
}

// TestPoolConnDeathFailsTransient: a connection dying under in-flight
// requests fails them all with an ErrOffline-wrapped (Transient) error,
// and the next call recovers on a fresh dial.
func TestPoolConnDeathFailsTransient(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection on the next frame it reads.
	nodes[0].SetOnline(false)

	const callers = 8
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
			errc <- err
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err == nil {
			t.Fatal("call to an offline peer succeeded")
		}
		if !errors.Is(err, ErrOffline) {
			t.Fatalf("conn death error = %v, want ErrOffline wrap", err)
		}
		if Classify(err) != resilience.Transient {
			t.Fatalf("conn death classified %v, want Transient", Classify(err))
		}
	}
	st := pt.Stats()
	if st.ConnLost == 0 {
		t.Error("no connection recorded as lost with requests in flight")
	}

	nodes[0].SetOnline(true)
	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatalf("pool did not recover after peer came back: %v", err)
	}
	if got := pt.Stats().Dials; got <= st.Dials {
		t.Errorf("recovery did not dial fresh: dials %d → %d", st.Dials, got)
	}
}

// TestPoolIdleReap: a connection with no traffic is reaped by the janitor.
func TestPoolIdleReap(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2,
		IdleTimeout: 50 * time.Millisecond})
	defer stop()

	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st := pt.Stats()
		if st.IdleClose >= 1 && st.Open == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("idle connection not reaped: %+v", pt.Stats())
}

// TestTCPPooledExchangeAndQuery runs the full P-Grid protocol — meetings,
// splits, recursion, then routing — over the pooled multiplexed transport,
// proving the wire carries the actual algorithm and not just echo RPCs, and
// that it does so over reused connections.
func TestTCPPooledExchangeAndQuery(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 8, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	rng := rand.New(rand.NewSource(5))
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
		t.Fatalf("pooled cluster did not reach depth 2 (avg %.2f)", float64(sum)/8)
	}

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
			t.Fatalf("query %s over pooled wire ended at %q", key, resp.Path())
		}
	}
	if st := pt.Stats(); st.Reuses <= st.Dials {
		t.Errorf("pool barely reused: %+v", st)
	}
}

// flakySwitch injects Transient failures between the resilient layer and
// the pool without touching the pool's own connections — the breaker sees
// failures while the warm sockets stay open, which is exactly the state
// the eviction hook exists for.
type flakySwitch struct {
	inner Transport
	fail  atomic.Bool
}

func (f *flakySwitch) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("%w: injected failure for %v", ErrOffline, to)
	}
	return f.inner.Call(to, m)
}

// TestPoolBreakerEviction wires resilience onto the pool the way the
// binaries do — OnPeerState evicts on open — and pins the satellite
// contract: the breaker opening closes the peer's warm connections, and
// after recovery the half-open probe's single dial repopulates the pool
// so subsequent calls reuse it rather than re-dialing.
func TestPoolBreakerEviction(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	flaky := &flakySwitch{inner: pt}
	var evicted atomic.Int64
	rt := resilience.Wrap(flaky, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Breaker:  resilience.BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond},
		Classify: Classify,
		Seed:     1,
		Sleep:    func(time.Duration) {},
		OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
			if to == resilience.StateOpen {
				evicted.Add(1)
				pt.Evict(peer)
			}
		},
	})

	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if _, err := rt.Call(0, info); err != nil {
		t.Fatal(err)
	}
	if st := pt.Stats(); st.Open != 1 || st.Dials != 1 {
		t.Fatalf("warmup stats = %+v", st)
	}

	// Trip the breaker: Threshold consecutive Transient failures.
	flaky.fail.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := rt.Call(0, info); err == nil {
			t.Fatal("injected failure succeeded")
		}
	}
	if evicted.Load() != 1 {
		t.Fatalf("breaker open fired OnPeerState %d times, want 1", evicted.Load())
	}
	st := pt.Stats()
	if st.Evictions != 1 || st.Open != 0 {
		t.Fatalf("open breaker left pool warm: %+v", st)
	}

	// While open, calls fast-fail locally: no dials reach the pool.
	if _, err := rt.Call(0, info); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("open breaker let a call through: %v", err)
	}
	if got := pt.Stats().Dials; got != st.Dials {
		t.Errorf("fast-fail dialed: %d → %d", st.Dials, got)
	}

	// Recovery: after the cooldown the half-open probe dials exactly once,
	// and every later call reuses that connection.
	flaky.fail.Store(false)
	time.Sleep(150 * time.Millisecond)
	if _, err := rt.Call(0, info); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	probe := pt.Stats()
	if probe.Dials != st.Dials+1 {
		t.Fatalf("half-open probe dials = %d, want %d", probe.Dials, st.Dials+1)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Call(0, info); err != nil {
			t.Fatal(err)
		}
	}
	final := pt.Stats()
	if final.Dials != probe.Dials {
		t.Errorf("post-recovery calls re-dialed: %d → %d", probe.Dials, final.Dials)
	}
	if final.Reuses <= probe.Reuses {
		t.Errorf("post-recovery calls did not reuse the probe's connection: %+v", final)
	}
}

// TestPoolHalfOpenProbeReusesConnection covers the breaker tripping
// WITHOUT the eviction hook (failures above the pool, warm socket still
// healthy): the half-open probe must go out over the existing pooled
// connection, not a fresh dial.
func TestPoolHalfOpenProbeReusesConnection(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	flaky := &flakySwitch{inner: pt}
	rt := resilience.Wrap(flaky, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Breaker:  resilience.BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		Classify: Classify,
		Seed:     2,
		Sleep:    func(time.Duration) {},
	})

	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if _, err := rt.Call(0, info); err != nil {
		t.Fatal(err)
	}
	flaky.fail.Store(true)
	for i := 0; i < 3; i++ {
		rt.Call(0, info)
	}
	tripped := pt.Stats()
	if tripped.Open != 1 || tripped.Dials != 1 {
		t.Fatalf("injected failures touched the pool: %+v", tripped)
	}

	flaky.fail.Store(false)
	time.Sleep(80 * time.Millisecond)
	if _, err := rt.Call(0, info); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	st := pt.Stats()
	if st.Dials != tripped.Dials {
		t.Errorf("half-open probe re-dialed a healthy pooled connection: %d → %d dials", tripped.Dials, st.Dials)
	}
	if st.Reuses != tripped.Reuses+1 {
		t.Errorf("half-open probe reuses = %d, want %d", st.Reuses, tripped.Reuses+1)
	}
}

// TestPoolSetEndpointEvicts pins that re-pointing a peer at another
// endpoint takes effect on the very next call: the pooled connection to
// the old endpoint is evicted instead of serving the peer on. Both
// listeners stay up, so a stale pooled connection would keep working —
// and keep reaching the wrong process. Each call stores one entry, so the
// stores show which listener took which frame.
func TestPoolSetEndpointEvicts(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 2, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()
	newEP, _ := pt.Endpoint(1)

	apply := func(name string) {
		t.Helper()
		_, err := pt.Call(0, &wire.Message{Kind: wire.KindApply, From: addr.Nil,
			Apply: &wire.ApplyReq{Entries: []store.Entry{{Key: bitpath.MustParse("01"), Name: name, Version: 1}}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	apply("before")
	if nodes[0].Store().Len() != 1 || nodes[1].Store().Len() != 0 {
		t.Fatalf("before re-pointing: entries old %d new %d, want 1 and 0",
			nodes[0].Store().Len(), nodes[1].Store().Len())
	}

	// Peers written around peer 0, sparse and out of order, are each found
	// and evict nothing; a peer never written is unknown.
	others := []addr.Addr{1 << 30, 900, 2, 1 << 20, 5}
	for _, a := range others {
		pt.SetEndpoint(a, fmt.Sprintf("10.0.0.1:%d", a))
	}
	for _, a := range others {
		if got, ok := pt.Endpoint(a); !ok || got != fmt.Sprintf("10.0.0.1:%d", a) {
			t.Fatalf("Endpoint(%v) = %q, %v", a, got, ok)
		}
	}
	if got, ok := pt.Endpoint(3); ok {
		t.Fatalf("Endpoint of unknown peer 3 = %q", got)
	}
	if st := pt.Stats(); st.Open != 1 || st.Evictions != 0 {
		t.Fatalf("writing other peers touched peer 0's connection: %+v", st)
	}

	pt.SetEndpoint(0, newEP)
	apply("after")
	if got := nodes[1].Store().Len(); got != 1 {
		t.Errorf("the call after re-pointing did not reach the new listener (%d entries there)", got)
	}
	if got := nodes[0].Store().Len(); got != 1 {
		t.Errorf("the old listener took a frame after the re-point (%d entries there)", got)
	}
	st := pt.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (the one pooled connection to the old endpoint)", st.Evictions)
	}

	// The same endpoint again is no change: nothing evicted, the pooled
	// connection serves on.
	pt.SetEndpoint(0, newEP)
	apply("again")
	if got := nodes[1].Store().Len(); got != 2 {
		t.Errorf("after a no-op SetEndpoint the new listener holds %d entries, want 2", got)
	}
	if after := pt.Stats(); after.Evictions != st.Evictions || after.Dials != st.Dials {
		t.Errorf("no-op SetEndpoint evicted or re-dialed: %+v → %+v", st, after)
	}
}

// TestPoolSetEndpointRefusesStaleDial: a Call that read the old endpoint and
// is still dialling it when the peer moves finishes its dial after
// SetEndpoint's eviction has run, so the eviction cannot find the connection.
// The pool must: it does not take a connection to an endpoint the peer has
// left, and no later acquire returns one — nor one pooled in the moment
// between SetEndpoint's writing the mapping and its eviction. Both listeners
// stay up, and each answers Info with its own address.
func TestPoolSetEndpointRefusesStaleDial(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 2, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()
	oldEP, _ := pt.Endpoint(0)
	newEP, _ := pt.Endpoint(1)
	const moved = addr.Addr(7)
	pt.SetEndpoint(moved, oldEP)
	pp := pt.pool(moved)

	answeredBy := func() addr.Addr {
		t.Helper()
		resp, err := pt.Call(moved, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
		if err != nil {
			t.Fatal(err)
		}
		return resp.InfoResp.Addr
	}
	onlyNew := func(when string, not *muxConn) {
		t.Helper()
		for i := 0; i < 6; i++ { // past the pool's size: fresh dials and shared connections
			mc, _, err := pp.acquire(pt, moved)
			if err != nil {
				t.Fatal(err)
			}
			if mc == not || mc.ep != newEP {
				t.Fatalf("%s: acquire %d returned a connection to %s, the peer is at %s", when, i, mc.ep, newEP)
			}
			if got := answeredBy(); got != 1 {
				t.Fatalf("%s: call %d was answered by node %v at the old endpoint", when, i, got)
			}
		}
	}

	stale, err := pt.dialConn(moved, oldEP, pp) // the dial in flight
	if err != nil {
		t.Fatal(err)
	}
	pt.SetEndpoint(moved, newEP) // evicts an empty pool
	if use, _ := pp.admit(pt, moved, stale); use != nil {
		t.Fatalf("the pool took the stale dial: use %v", use)
	}
	stale.mu.Lock()
	dead := stale.dead
	stale.mu.Unlock()
	if !dead {
		t.Error("the refused connection was left open")
	}
	onlyNew("after a dial that outlived SetEndpoint", stale)

	// The mapping written, the eviction not yet run.
	pt.SetEndpoint(moved, oldEP)
	if got := answeredBy(); got != 0 {
		t.Fatalf("moved back, answered by node %v", got)
	}
	pt.mu.Lock()
	pt.endpoints[moved] = newEP
	pt.mu.Unlock()
	onlyNew("between the mapping and the eviction", nil)
}
