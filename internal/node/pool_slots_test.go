package node

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/raceflag"
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

// TestAllocBudgetPoolRoundTrip: one warm call through the instrumented
// pooled transport to a loopback Server — client and server side together,
// both run in this process — allocates only what a hop hands to its caller
// or cannot avoid: the server's decoded Message, GetReq and key path (3),
// its reply Message and GetResp (2), its per-request goroutine and closure
// (2), and the client's decoded Message and GetResp (2; a miss carries
// empty strings). A per-call channel, timer, label string or escaping
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
	req := &wire.Message{Kind: wire.KindGet, From: addr.Nil, Get: &wire.GetReq{Key: "0101", Name: "f"}}
	call := func() {
		if _, err := tr.Call(0, req); err != nil {
			t.Fatal(err)
		}
	}
	call() // dial, negotiate, register instruments
	const budget = 9
	if got := testing.AllocsPerRun(500, call); got > budget {
		t.Errorf("warm pooled round trip = %.1f allocs, budget %d", got, budget)
	} else {
		t.Logf("warm pooled round trip = %.1f allocs", got)
	}
}
