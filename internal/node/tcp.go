package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

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

// Serve accepts connections until the listener is closed or ctx is done.
// Each connection carries a stream of request frames, answered as they
// complete, until the client closes it. An offline node answers nothing
// (connections are dropped), mirroring an unreachable peer.
func (s *Server) Serve(ctx context.Context) error {
	go func() {
		<-ctx.Done()
		s.Close()
	}()
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
			return fmt.Errorf("node: accept: %w", err)
		}
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

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	s.serveBinary(conn)
}

// frameReadBuffer is the read buffer at each end of every connection. An idle
// pooled connection holds two of them for as long as it is pooled, and a
// community pools thousands, so it is sized to the frames, not to bufio's 4 kB
// default: a routed query or its answer is 50–120 bytes with its header, so
// one fill takes a whole frame — several, when they queue — and wire.ReadFrame
// still parses the header in place. A body that does not fit (entry lists,
// link states) is read straight into ReadFrame's scratch, past this buffer:
// bufio does that for any read at least its own size. internal/wire's framing
// tests read through a buffer of this size (frameReadSizes there).
const frameReadBuffer = 256

// binConn is what the workers serving one connection's requests share.
type binConn struct {
	conn     net.Conn
	wmu      sync.Mutex     // serializes response frames
	sem      chan struct{}  // bounds the requests in flight
	inflight sync.WaitGroup // and counts them
}

// job is one decoded request, the room it was decoded into and the connection
// that wants its answer.
type job struct {
	c    *binConn
	seq  uint32
	msg  *wire.Message
	room *wire.Room
}

// worker is a request goroutine that outlives its request: parked on the
// server's idle list, it takes its next job over a channel of its own.
type worker struct {
	jobs chan job // capacity 1: whoever unparks the worker never waits for it
}

// serveBinary runs the multiplexed binary protocol: requests are decoded
// in arrival order but handled concurrently, and each response frame
// echoes its request's sequence id so the dialer's demux can route it.
// Responses may therefore interleave out of order — that is the point.
func (s *Server) serveBinary(conn net.Conn) {
	br := bufio.NewReaderSize(conn, frameReadBuffer)
	c := &binConn{conn: conn, sem: make(chan struct{}, serveBinaryConcurrency)}
	defer c.inflight.Wait()
	for {
		// An idle connection holds no room: the frame's header comes first.
		if _, err := br.Peek(wire.HeaderSize); err != nil {
			return
		}
		room := s.takeRoom()
		seq, flags, msg, err := wire.ReadFrameIn(br, room)
		if err != nil {
			// Corrupt frames — a first byte that is not the magic
			// included — poison the stream framing itself: there is no
			// way to resynchronize on a byte stream, so any read error
			// drops the connection.
			s.putRoom(room)
			return
		}
		if !s.node.Online() {
			s.putRoom(room)
			return // simulate an unreachable peer: no answer
		}
		if flags&wire.FlagResponse != 0 {
			s.putRoom(room)
			continue // a confused client; requests only on this side
		}
		c.sem <- struct{}{}
		c.inflight.Add(1)
		s.dispatch(job{c, seq, msg, room})
	}
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

// serve answers one request on its connection and, the reply written, clears
// the room the request was decoded and answered in for the next frame.
func (s *Server) serve(j job) {
	c := j.c
	resp := s.answer(j.msg)
	c.wmu.Lock()
	err := wire.WriteFrame(c.conn, j.seq, wire.FlagResponse, resp)
	c.wmu.Unlock()
	s.putRoom(j.room)
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
