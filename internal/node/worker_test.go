package node

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/wire"
)

// startServer serves n on a loopback listener and returns the server, a
// pooled transport that knows it under its address, and a stop that returns
// once Serve has: connections closed, workers retired.
func startServer(t *testing.T, n *Node) (*Server, *PoolTransport, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(n, ln)
	pt := NewPoolTransport(PoolConfig{Size: 4})
	pt.SetEndpoint(n.Addr(), ln.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() { srv.Serve(ctx); close(served) }()
	return srv, pt, func() {
		pt.Close()
		cancel() // closes the server
		<-served
	}
}

func (s *Server) idleWorkers() []*worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*worker(nil), s.idle...)
}

// waitIdle waits until exactly n workers are parked and returns them.
func waitIdle(t *testing.T, s *Server, n int) []*worker {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		idle := s.idleWorkers()
		if len(idle) == n {
			return idle
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked, want %d", len(idle), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWorkerReusedAcrossRequests: requests that arrive one after the other
// are served by parked workers, not by a goroutine each — the goroutine count
// after 10 000 of them is what it was after the first few, within the idle
// list's bound (a request that arrives before the previous worker has parked
// starts a second one, which then parks too).
func TestWorkerReusedAcrossRequests(t *testing.T) {
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	srv, pt, stop := startServer(t, n)
	defer stop()
	call := func() {
		if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	warm := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		call()
	}
	if after := runtime.NumGoroutine(); after > warm+maxIdleWorkers-1 {
		t.Errorf("goroutines: %d after 10 warm-up requests, %d after 10000 more", warm, after)
	} else {
		t.Logf("goroutines %d → %d, %d worker(s) parked", warm, after, len(srv.idleWorkers()))
	}
}

// TestWorkerBoundPerConnection: one connection has at most
// serveBinaryConcurrency handlers running; the frame after that waits in the
// read loop until one of them has answered, and every frame is answered in
// the end.
func TestWorkerBoundPerConnection(t *testing.T) {
	const frames = serveBinaryConcurrency + 6
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(n, ln)
	defer srv.Close()
	client, server := net.Pipe()
	client.SetDeadline(time.Now().Add(10 * time.Second))

	var running, peak atomic.Int64
	release := make(chan struct{})
	srv.handle = func(m *wire.Message) *wire.Message {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		<-release
		running.Add(-1)
		return n.Handle(m)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveBinary(server)
	}()

	// A pipe write returns when the server has read the bytes, so once frame
	// 65 is written the read loop holds it and can only be waiting for a slot.
	pastBound := make(chan struct{})
	go func() {
		for seq := uint32(1); seq <= frames; seq++ {
			if err := wire.WriteFrame(client, seq, 0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
				t.Errorf("write frame %d: %v", seq, err)
				return
			}
			if seq == serveBinaryConcurrency+1 {
				close(pastBound)
			}
		}
	}()
	<-pastBound
	for deadline := time.Now().Add(5 * time.Second); running.Load() < serveBinaryConcurrency; {
		if time.Now().After(deadline) {
			t.Fatalf("%d handlers running with %d frames delivered", running.Load(), serveBinaryConcurrency+1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := running.Load(); got != serveBinaryConcurrency {
		t.Errorf("%d handlers running while frame %d waits, want %d", got, serveBinaryConcurrency+1, serveBinaryConcurrency)
	}
	close(release)
	answered := map[uint32]bool{}
	for len(answered) < frames {
		seq, flags, resp, err := wire.ReadFrame(client)
		if err != nil || flags&wire.FlagResponse == 0 || resp.InfoResp == nil || answered[seq] {
			t.Fatalf("answer %d: seq %d flags %d %+v, err %v", len(answered), seq, flags, resp, err)
		}
		answered[seq] = true
	}
	if p := peak.Load(); p != serveBinaryConcurrency {
		t.Errorf("peak handlers in flight = %d, want %d", p, serveBinaryConcurrency)
	}
	client.Close()
	<-done
}

// TestWorkerServerCloseLeavesNoGoroutine: workers busy and parked, the
// connections they served and the accept loop are all gone when Serve returns.
func TestWorkerServerCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	srv, pt, stop := startServer(t, n)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ { // more at once than the idle list keeps
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if idle := len(srv.idleWorkers()); idle > maxIdleWorkers {
		t.Errorf("%d workers parked, the list holds %d", idle, maxIdleWorkers)
	}
	stop()
	if idle := len(srv.idleWorkers()); idle != 0 {
		t.Errorf("%d workers still parked after Close", idle)
	}
	// The pool's demux readers exit on their own once their sockets close.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}
