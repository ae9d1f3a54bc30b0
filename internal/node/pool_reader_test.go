package node

import (
	"bufio"
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
	"pgrid/internal/resilience"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// The pool's demultiplexer is its callers: while calls are pending on a
// connection exactly one of them reads it, hands every other caller its
// response and, once its own arrives, passes the role on. These tests hold
// the role's hand-off, its deadline, and what happens when the connection
// goes away under it or while nobody reads.

// listenScripted serves every accepted connection with script, and returns
// the listener and a stop that closes it and every connection, then waits
// for the scripts to return.
func listenScripted(t *testing.T, script func(conn net.Conn, br *bufio.Reader)) (net.Listener, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				script(conn, bufio.NewReader(conn))
			}()
		}
	}()
	return ln, func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// onlyConn returns the peer's one pooled connection.
func onlyConn(t *testing.T, pt *PoolTransport, to addr.Addr) *muxConn {
	t.Helper()
	pp := pt.pool(to)
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if len(pp.conns) != 1 {
		t.Fatalf("peer %v has %d pooled connections, want 1", to, len(pp.conns))
	}
	return pp.conns[0]
}

// TestPoolReaderHandOff: 32 calls in flight on one connection, answered in
// shuffled order, each get their own response — whichever caller reads it
// off the stream — and when the last returns nobody holds the reader role,
// nothing is pending and no goroutine was left behind: an idle connection
// has no reader.
func TestPoolReaderHandOff(t *testing.T) {
	const calls = 32
	var batch atomic.Int64
	batch.Store(1)
	rng := rand.New(rand.NewSource(40))
	ln, stopSrv := listenScripted(t, func(conn net.Conn, br *bufio.Reader) {
		type req struct {
			seq  uint32
			name string
		}
		var held []req
		for {
			seq, _, m, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			if held = append(held, req{seq, m.Get.Name}); int64(len(held)) < batch.Load() {
				continue
			}
			rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
			for _, r := range held {
				if wire.WriteFrame(conn, r.seq, wire.FlagResponse, echoReply(r.name)) != nil {
					return
				}
			}
			held = held[:0]
		}
	})
	defer stopSrv()
	pt := NewPoolTransport(PoolConfig{IOTimeout: 5 * time.Second})
	defer pt.Close()
	pt.SetEndpoint(0, ln.Addr().String())

	if _, err := pt.Call(0, getNonce("warm")); err != nil {
		t.Fatal(err)
	}
	batch.Store(calls)
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nonce := fmt.Sprintf("n-%d", i)
			resp, err := pt.Call(0, getNonce(nonce))
			if err != nil {
				t.Errorf("call %s: %v", nonce, err)
				return
			}
			if got := resp.GetResp.Entry.Name; got != nonce {
				t.Errorf("call %s received %s's response", nonce, got)
			}
		}(i)
	}
	wg.Wait()

	mc := onlyConn(t, pt, 0)
	mc.mu.Lock()
	reader, pending := mc.reader, len(mc.pending)
	mc.mu.Unlock()
	if reader != nil || pending != 0 {
		t.Errorf("after every call returned: reader %+v, %d pending; want no reader, nothing pending", reader, pending)
	}
	if st := pt.Stats(); st.Dials != 1 || st.ConnLost != 0 {
		t.Errorf("stats = %+v, want the one connection, never lost", st)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after the calls, %d with the connection idle before them", got, base)
	}
}

// TestPoolReaderEnforcesOldestDeadline: the reader's read deadline is the
// earliest pending one, not its own. The server never answers the first
// call, A; every later call it answers once a younger one has arrived, so
// each hand-off goes to a younger caller and A never reads. The youngest
// call's answer is held past A's deadline. The connection must fail at A's
// deadline, failing A and the reader with A's timeout, Transient and in the
// "timeout" error class.
func TestPoolReaderEnforcesOldestDeadline(t *testing.T) {
	const (
		ioTimeout = time.Second
		spacing   = 50 * time.Millisecond // between the later calls
		later     = 10
		// The youngest call arrives about later×spacing after A: its answer
		// comes about 250 ms after A's deadline and 250 ms before its own.
		youngestAnswer = ioTimeout - later*spacing + 250*time.Millisecond
		slack          = 200 * time.Millisecond
	)
	seen := make(chan string, later+2)
	ln, stopSrv := listenScripted(t, func(conn net.Conn, br *bufio.Reader) {
		var wmu sync.Mutex
		answer := func(seq uint32, name string) {
			wmu.Lock()
			defer wmu.Unlock()
			wire.WriteFrame(conn, seq, wire.FlagResponse, echoReply(name))
		}
		var last *time.Timer
		var lastSeq uint32
		var lastName string
		for {
			seq, _, m, err := wire.ReadFrame(br)
			if err != nil {
				if last != nil {
					last.Stop()
				}
				return
			}
			seen <- m.Get.Name
			if m.Get.Name == "A" {
				continue
			}
			if last != nil && last.Stop() {
				answer(lastSeq, lastName)
			}
			lastSeq, lastName = seq, m.Get.Name
			last = time.AfterFunc(youngestAnswer, func() { answer(seq, m.Get.Name) })
		}
	})
	defer stopSrv()
	pt := NewPoolTransport(PoolConfig{IOTimeout: ioTimeout})
	defer pt.Close()
	pt.SetEndpoint(0, ln.Addr().String())

	errs := make([]error, later+2) // Z, A, B1 … B10
	var wg sync.WaitGroup
	var aTook time.Duration
	launch := func(i int, name string) {
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			resp, err := pt.Call(0, getNonce(name))
			if err == nil && resp.GetResp.Entry.Name != name {
				err = fmt.Errorf("call %s received %s's response", name, resp.GetResp.Entry.Name)
			}
			errs[i] = err
			if name == "A" {
				aTook = time.Since(start)
			}
		}()
		if got := <-seen; got != name {
			t.Fatalf("server saw %s, want %s", got, name)
		}
	}
	launch(0, "Z") // the first reader
	launch(1, "A")
	for i := 1; i <= later; i++ {
		time.Sleep(spacing)
		launch(i+1, fmt.Sprintf("B%d", i))
	}
	mc := onlyConn(t, pt, 0)
	mc.mu.Lock()
	readerSeq, aPending := mc.reader.seq, mc.pending[2] != nil
	mc.mu.Unlock()
	if readerSeq <= 2 || !aPending {
		t.Fatalf("before A's deadline: the reader is call %d and A (call 2) pending=%v; want a younger reader", readerSeq, aPending)
	}
	wg.Wait()

	if aTook < ioTimeout || aTook > ioTimeout+slack {
		t.Errorf("A failed after %v, want at its deadline (%v, slack %v)", aTook, ioTimeout, slack)
	}
	for i, err := range errs {
		name := "Z"
		if i > 0 {
			name = "A"
		}
		if i > 1 {
			name = fmt.Sprintf("B%d", i-1)
		}
		switch {
		case i == 1 || i == len(errs)-1: // A, and the youngest: the reader when A's deadline passed
			if err == nil || !strings.Contains(err.Error(), "response 2 timed out") {
				t.Errorf("%s: error = %v, want A's timeout", name, err)
			} else if Classify(err) != resilience.Transient || errClass(err) != telemetry.ErrClassTimeout {
				t.Errorf("%s: %v classified %v, class %v; want Transient, timeout", name, err, Classify(err), errClass(err))
			}
		case err != nil:
			t.Errorf("%s: %v, want its response", name, err)
		}
	}
	if st := pt.Stats(); st.ConnLost != 1 || st.Open != 0 {
		t.Errorf("stats = %+v, want the one connection lost", st)
	}
}

// TestPoolReaderClosed: evicting the peer, or closing the pool, while a
// caller reads fails that caller and every pending one with ErrOffline at
// once — closing the socket ends the read — and leaves no goroutine.
func TestPoolReaderClosed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(pt *PoolTransport)
	}{
		{"Evict", func(pt *PoolTransport) { pt.Evict(0) }},
		{"Close", func(pt *PoolTransport) { pt.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			srv := startEchoServer(t)
			pt := NewPoolTransport(PoolConfig{IOTimeout: 10 * time.Second})
			pt.SetEndpoint(0, srv.ln.Addr().String())
			const calls = 4
			errs := make([]error, calls)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = pt.Call(0, getNonce(fmt.Sprintf("hold-%d", i)))
				}(i)
			}
			for srv.held.Load() < calls {
				time.Sleep(time.Millisecond)
			}
			mc := onlyConn(t, pt, 0)
			mc.mu.Lock()
			reading, pending := mc.reader != nil, len(mc.pending)
			mc.mu.Unlock()
			if !reading || pending != calls-1 {
				t.Fatalf("reader %v, %d pending; want one reader and %d pending", reading, pending, calls-1)
			}
			start := time.Now()
			tc.close(pt)
			wg.Wait()
			if took := time.Since(start); took > time.Second {
				t.Errorf("calls returned %v after the close, want at once", took)
			}
			for i, err := range errs {
				if !errors.Is(err, ErrOffline) || !strings.Contains(err.Error(), "closed by pool") {
					t.Errorf("call %d: error = %v, want ErrOffline from the close", i, err)
				}
			}
			pt.Close()
			srv.stop()
			waitGoroutines(t, base)
		})
	}
}

// TestPoolReaderStaleIdleConn: with nobody reading an idle connection,
// nobody sees its peer go away. A peer that closes its end and listens
// again on the same endpoint costs the next call one ErrOffline — its write
// lands, its read finds the stream ended — which counts the connection
// lost, and the call after it dials afresh. (cmd/pgridnode's
// TestOutgoingStaleIdleConn holds the resilience stack retrying it.)
func TestPoolReaderStaleIdleConn(t *testing.T) {
	n := New(0, smallCfg(), NewLocalTransport(), 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := ln.Addr().String()
	srv := NewServer(n, ln)
	go srv.Serve(t.Context())
	pt := NewPoolTransport(PoolConfig{IOTimeout: 5 * time.Second})
	defer pt.Close()
	pt.SetEndpoint(0, ep)
	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if _, err := pt.Call(0, info); err != nil {
		t.Fatal(err)
	}

	srv.Close() // the peer restarts on the same endpoint
	if ln, err = net.Listen("tcp", ep); err != nil {
		t.Fatal(err)
	}
	srv = NewServer(n, ln)
	defer srv.Close()
	go srv.Serve(t.Context())

	if _, err := pt.Call(0, info); !errors.Is(err, ErrOffline) || Classify(err) != resilience.Transient {
		t.Fatalf("first call after the restart: error = %v, want a Transient ErrOffline", err)
	}
	if resp, err := pt.Call(0, info); err != nil || resp.InfoResp == nil {
		t.Fatalf("second call after the restart: %+v, %v", resp, err)
	}
	if st := pt.Stats(); st.Dials != 2 || st.ConnLost != 1 || st.Open != 1 {
		t.Errorf("stats = %+v, want a second dial, one connection lost, one open", st)
	}
}
