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
	node *Node
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a node and a listener. Call Serve to start accepting.
func NewServer(n *Node, ln net.Listener) *Server {
	return &Server{node: n, ln: ln, conns: make(map[net.Conn]struct{})}
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

// serveBinaryConcurrency bounds the request goroutines one multiplexed
// connection may have in flight at once; further frames queue in the read
// loop, applying backpressure through TCP itself.
const serveBinaryConcurrency = 64

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	s.serveBinary(conn, bufio.NewReader(conn), s.node.Handle)
}

// serveBinary runs the multiplexed binary protocol: requests are decoded
// in arrival order but handled concurrently, and each response frame
// echoes its request's sequence id so the dialer's demux can route it.
// Responses may therefore interleave out of order — that is the point.
// handle is the node's Handle (a parameter so a test can make it panic).
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader, handle func(*wire.Message) *wire.Message) {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	defer wg.Wait()
	sem := make(chan struct{}, serveBinaryConcurrency)
	for {
		seq, flags, msg, err := wire.ReadFrame(br)
		if err != nil {
			// Corrupt frames — a first byte that is not the magic
			// included — poison the stream framing itself: there is no
			// way to resynchronize on a byte stream, so any read error
			// drops the connection.
			return
		}
		if !s.node.Online() {
			return // simulate an unreachable peer: no answer
		}
		if flags&wire.FlagResponse != 0 {
			continue // a confused client; requests only on this side
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(seq uint32, msg *wire.Message) {
			defer func() { <-sem; wg.Done() }()
			resp := s.answer(handle, msg)
			wmu.Lock()
			err := wire.WriteFrame(conn, seq, wire.FlagResponse, resp)
			wmu.Unlock()
			if err != nil {
				conn.Close() // the read loop will see the close and exit
			}
		}(seq, msg)
	}
}

// answer runs handle on one request behind the process's crash boundary:
// each request has a goroutine of its own, so a handler bug that bytes from
// the network can reach would otherwise take the whole node down. The caller
// gets a KindError and the connection goes on serving.
func (s *Server) answer(handle func(*wire.Message) *wire.Message, msg *wire.Message) (resp *wire.Message) {
	defer func() {
		if p := recover(); p != nil {
			rpcKind(s.node.tel, msg.Kind).ServedPanic()
			resp = &wire.Message{Kind: wire.KindError, From: s.node.Addr(),
				Error: fmt.Sprintf("panic serving %v: %v", msg.Kind, p)}
		}
	}()
	return handle(msg)
}

// Close stops accepting and closes active connections.
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
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}
