package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pgrid/internal/wire"
)

// Server serves a node's handler over a TCP listener.
type Server struct {
	node   *Node
	handle func(*wire.Message) *wire.Message // node.Handle; a test's may hold, note or panic
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	idle   []*worker    // parked request workers, the last one parked last
	rooms  []*wire.Room // request rooms free for the next frame, at most maxIdleWorkers
	closed bool
	wg     sync.WaitGroup // connections and workers
}

// NewServer wraps a node and a listener. Call Serve to start accepting.
func NewServer(n *Node, ln net.Listener) *Server {
	return &Server{node: n, handle: n.Handle, ln: ln, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until the server is closed or ctx is done, and
// returns nil once every connection and worker it started has ended. Each
// connection carries a stream of request frames, answered as they complete,
// until the client closes it. An offline node answers nothing (connections are
// dropped), mirroring an unreachable peer. A failed Accept — a process out of
// file descriptors, say, which anyone who opens enough connections can cause —
// is retried after a backoff (acceptBackoffMin doubling to acceptBackoffMax)
// instead of ending Serve.
func (s *Server) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, s.Close)
	defer stop()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				s.wg.Wait()
				return nil
			}
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done(): // Close has run or is running: the next Accept fails closed
				t.Stop()
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// acceptBackoffMin and acceptBackoffMax bound the wait before Serve retries a
// failed Accept, as net/http's server does.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serveBinaryConcurrency bounds the requests one multiplexed connection may
// have in flight at once; further frames queue in the read loop, applying
// backpressure through TCP itself.
const serveBinaryConcurrency = 64

// maxIdleWorkers bounds the workers a server keeps parked between requests.
// The list never shrinks — it grows to the most requests the server has had in
// flight at once, up to this bound — and a parked worker costs a goroutine and
// its 4 kB of stack while a community runs one server per peer — so the list
// belongs to the server, not to each connection, and stays short: on the
// benchmark's workloads four slots allocate what eight or thirty-two do, two
// save 3 % of the goroutines and no memory that can be measured (DESIGN
// §12.2), and a burst beyond them spawns and retires goroutines as every
// request once did. The server keeps as many free request rooms (wire.Room),
// for the same reason: a room outlives its request as a parked worker does.
const maxIdleWorkers = 4

// serveConn serves conn and forgets it. It defers nothing: a deferred closure
// would sit in its frame, under every frame of the reader parked below it, and
// the reader calls nothing that panics.
func (s *Server) serveConn(conn net.Conn) {
	s.serveBinary(conn)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// frameReadBuffer is the read buffer at each end of every connection. An idle
// pooled connection holds two of them for as long as it is pooled, and a
// community pools thousands, so it is sized to the frames, not to bufio's 4 kB
// default: a routed query or its answer is 50–120 bytes with its header, so
// one fill takes a whole frame — several, when they queue — and
// wire.ReadRawFrame still parses the header in place. A body that does not fit
// (entry lists, link states) is read straight into its pooled buffer, past
// this one: bufio does that for any read at least its own size. internal/wire's framing
// tests read through a buffer of this size (frameReadSizes there).
const frameReadBuffer = 256

// binConn is what the workers serving one connection's requests share.
type binConn struct {
	conn     net.Conn
	wmu      sync.Mutex     // serializes response frames
	sem      chan struct{}  // bounds the requests in flight
	inflight sync.WaitGroup // and counts them
}

// job is one request frame, read but not decoded, and the connection that
// wants its answer.
type job struct {
	c *binConn
	f wire.RawFrame
}

// worker is a request goroutine that outlives its request: parked on the
// server's idle list, it takes its next job over a channel of its own.
type worker struct {
	jobs chan job // capacity 1: whoever unparks the worker never waits for it
}

// serveBinary runs the multiplexed binary protocol: the connection's reader
// only reads bytes — each frame's header, checked, and its body — and the
// worker that handles a request decodes it, so requests are decoded and
// handled concurrently, and each response frame echoes its request's
// sequence id so the dialer's demux can route it. Responses may therefore
// interleave out of order — that is the point. The reader runs no decoder so
// that its goroutine, parked on every accepted connection, keeps the smallest
// stack the runtime gives one (DESIGN §12.6).
func (s *Server) serveBinary(conn net.Conn) {
	c, br := newBinConn(conn)
	for {
		// Corrupt headers — a first byte that is not the magic included —
		// poison the stream framing itself: there is no way to resynchronize
		// on a byte stream, so any read error drops the connection.
		f, err := wire.ReadRawFrame(br)
		if err != nil || !s.admit(c, &f) {
			break
		}
	}
	c.inflight.Wait()
}

// newBinConn returns what the workers serving conn share and the reader its
// frames are read through. Inlined, it would build the bufio.Reader in
// serveBinary's frame, which stays on the stack of the goroutine parked
// reading the connection.
//
//go:noinline
func newBinConn(conn net.Conn) (*binConn, *bufio.Reader) {
	return &binConn{conn: conn, sem: make(chan struct{}, serveBinaryConcurrency)},
		bufio.NewReaderSize(conn, frameReadBuffer)
}

// admit hands a request frame read from c to a worker and reports whether c
// is still served: an offline node drops the connection, simulating an
// unreachable peer that answers nothing, and a response frame — a confused
// client; requests only on this side — is dropped alone.
func (s *Server) admit(c *binConn, f *wire.RawFrame) bool {
	if !s.node.Online() {
		f.Release()
		return false
	}
	if f.Flags&wire.FlagResponse != 0 {
		f.Release()
		return true
	}
	c.sem <- struct{}{}
	c.inflight.Add(1)
	s.dispatch(job{c, *f})
	return true
}

// takeRoom returns the room freed last, or a new one when none is free.
func (s *Server) takeRoom() *wire.Room {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.rooms)
	if n == 0 {
		return new(wire.Room)
	}
	r := s.rooms[n-1]
	s.rooms = s.rooms[:n-1]
	return r
}

// putRoom clears r and frees it for the next frame, unless maxIdleWorkers are
// free already.
func (s *Server) putRoom(r *wire.Room) {
	r.Clear()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rooms) < maxIdleWorkers {
		s.rooms = append(s.rooms, r)
	}
}

// dispatch hands j to the worker parked last, or to a new one when none is
// parked: a request never waits for a worker, so a query routed back through
// this server cannot wait on the handler that forwarded it.
func (s *Server) dispatch(j job) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		w.jobs <- j
		return
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.work(&worker{jobs: make(chan job, 1)}, j)
}

// work serves j and then whatever jobs reach the worker while it is parked; it
// ends when the idle list is full or the server closed.
func (s *Server) work(w *worker, j job) {
	defer s.wg.Done()
	for {
		s.serve(j)
		j = job{} // a parked worker keeps no request and no connection alive
		if !s.park(w) {
			return
		}
		var ok bool
		if j, ok = <-w.jobs; !ok {
			return
		}
	}
}

// park puts w on the idle list and reports whether it did: a full list or a
// closed server has no use for another parked worker.
func (s *Server) park(w *worker) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.idle) >= maxIdleWorkers {
		return false
	}
	s.idle = append(s.idle, w)
	return true
}

// serve decodes one request into a room, answers it on its connection and,
// the reply written, clears the room for the next frame. A body that does not
// decode drops the connection, as a corrupt header does at the reader.
func (s *Server) serve(j job) {
	c := j.c
	room := s.takeRoom()
	msg, err := j.f.Decode(room)
	if err == nil {
		resp := s.answer(msg)
		c.wmu.Lock()
		err = wire.WriteFrame(c.conn, j.f.Seq, wire.FlagResponse, resp)
		c.wmu.Unlock()
	}
	s.putRoom(room)
	if err != nil {
		c.conn.Close() // the read loop will see the close and exit
	}
	<-c.sem
	c.inflight.Done()
}

// answer runs the handler on one request behind the process's crash boundary: a
// handler bug that bytes from the network can reach would otherwise take the
// whole node down. The caller gets a KindError, and the connection and the
// worker go on serving.
func (s *Server) answer(msg *wire.Message) (resp *wire.Message) {
	defer func() {
		if p := recover(); p != nil {
			rpcKind(s.node.tel, msg.Kind).ServedPanic()
			resp = &wire.Message{Kind: wire.KindError, From: s.node.Addr(),
				Error: fmt.Sprintf("panic serving %v: %v", msg.Kind, p)}
		}
	}()
	return s.handle(msg)
}

// Close stops accepting, closes active connections and retires the parked
// workers; one still serving retires when its request is answered.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, w := range idle {
		close(w.jobs)
	}
}
