package node

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// PoolConfig parameterizes PoolTransport.
type PoolConfig struct {
	// DialTimeout bounds connection establishment (0 means 5s).
	DialTimeout time.Duration
	// IOTimeout bounds one request/response round trip (0 means 5s). On a
	// multiplexed connection a request that misses the deadline kills the
	// whole connection — a stream with one stuck response cannot be
	// trusted for the others either.
	IOTimeout time.Duration
	// Size caps the pooled connections per peer (0 means 2). It is a cap, not
	// a level load reaches: a second connection is dialled only once the first
	// carries every call the server will serve on it at a time (peerPool.pick).
	Size int
	// IdleTimeout reaps pooled connections with no traffic for this long
	// (0 means 60s). Reaping keeps a big community from pinning a socket
	// per peer it talked to once.
	IdleTimeout time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 5 * time.Second
	}
	if c.Size <= 0 {
		c.Size = 2
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
	return c
}

// PoolStats is a snapshot of the pool's lifetime counters, for tests and
// status lines. The gauges (Open, InFlight) are instantaneous.
type PoolStats struct {
	Dials     int64
	Reuses    int64
	Evictions int64
	IdleClose int64
	ConnLost  int64
	Open      int64
	InFlight  int64
}

// PoolTransport is the networked Transport: per-peer pools of long-lived
// connections, each multiplexing concurrent in-flight requests over the
// binary frame codec via sequence ids. A dial is one TCP connect and
// nothing else: a peer that accepts and then drops the connection
// unanswered — what an offline node does — costs that one connect.
//
// Every transport-level failure — dial errors, timeouts, connections dying
// mid-flight — wraps ErrOffline, so the resilience stack classifies pool
// failures as Transient and may retry; only undecodable responses surface
// wire.ErrCorrupt.
type PoolTransport struct {
	mu        sync.RWMutex
	endpoints map[addr.Addr]string
	peers     map[addr.Addr]*peerPool
	closed    bool

	cfg PoolConfig
	tel *telemetry.Instruments

	dials     atomic.Int64
	reuses    atomic.Int64
	evictions atomic.Int64
	idleClose atomic.Int64
	connLost  atomic.Int64
	open      atomic.Int64
	inFlight  atomic.Int64
	acquiring atomic.Int64 // callers currently waiting to hold a connection

	janitor *time.Timer // runs reap, which re-arms it until Close; guarded by mu
}

// NewPoolTransport returns a pooled transport with the given configuration.
// Call Close when done to release connections and the idle janitor.
func NewPoolTransport(cfg PoolConfig) *PoolTransport {
	p := &PoolTransport{
		endpoints: make(map[addr.Addr]string),
		peers:     make(map[addr.Addr]*peerPool),
		cfg:       cfg.withDefaults(),
	}
	p.mu.Lock()
	p.janitor = time.AfterFunc(p.reapInterval(), p.reap)
	p.mu.Unlock()
	return p
}

// SetTelemetry attaches pool instruments (nil disables). Call before the
// transport is used; the field is not synchronized.
func (p *PoolTransport) SetTelemetry(tel *telemetry.Instruments) { p.tel = tel }

// SetEndpoint maps a logical peer address to host:port. Re-pointing a known
// peer at a different endpoint evicts its pooled connections: they lead to
// the old endpoint, and the next call must reach the new one. A call that
// was already dialling the old endpoint finishes on its own connection, which
// the pool refuses (peerPool.admit).
func (p *PoolTransport) SetEndpoint(a addr.Addr, hostport string) {
	p.mu.Lock()
	old, known := p.endpoints[a]
	p.endpoints[a] = hostport
	p.mu.Unlock()
	if known && old != hostport {
		p.Evict(a)
	}
}

// Endpoint returns the mapping for a, if known.
func (p *PoolTransport) Endpoint(a addr.Addr) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ep, ok := p.endpoints[a]
	return ep, ok
}

// Stats snapshots the pool counters.
func (p *PoolTransport) Stats() PoolStats {
	return PoolStats{
		Dials:     p.dials.Load(),
		Reuses:    p.reuses.Load(),
		Evictions: p.evictions.Load(),
		IdleClose: p.idleClose.Load(),
		ConnLost:  p.connLost.Load(),
		Open:      p.open.Load(),
		InFlight:  p.inFlight.Load(),
	}
}

func (p *PoolTransport) publishGauges() {
	p.tel.PoolGauges(p.open.Load(), p.inFlight.Load(), p.acquiring.Load())
}

// Call implements Transport.
func (p *PoolTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	if _, ok := p.Endpoint(to); !ok {
		return nil, fmt.Errorf("%w: no endpoint for %v", ErrOffline, to)
	}
	p.inFlight.Add(1)
	defer func() {
		p.inFlight.Add(-1)
		p.publishGauges()
	}()

	pp := p.pool(to)
	start := time.Now()
	p.acquiring.Add(1)
	mc, reused, err := pp.acquire(p, to)
	p.acquiring.Add(-1)
	p.tel.PoolAcquireWait(time.Since(start))
	if err != nil {
		p.notePeerError(to, err)
		return nil, err
	}
	if reused {
		p.reuses.Add(1)
		p.tel.PoolReuse()
	}
	// A connection that fails under the call has already removed itself
	// from the pool; the caller's retry (if any) will re-acquire.
	resp, err := mc.call(msg, p.cfg.IOTimeout)
	if err == nil && resp.Kind == wire.KindError {
		err = fmt.Errorf("node %v: %s", to, resp.Error)
	}
	if err != nil {
		p.notePeerError(to, err)
		return nil, err
	}
	return resp, nil
}

// notePeerError feeds the per-peer error-class counters.
func (p *PoolTransport) notePeerError(to addr.Addr, err error) {
	if p.tel == nil {
		return
	}
	p.tel.PeerError(int(to), errClass(err))
}

// errClass buckets a call error for the per-peer counters: timeout,
// refused, closed, corrupt, other transport loss as offline, and error
// replies from a healthy peer as app.
func errClass(err error) telemetry.ErrClass {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return telemetry.ErrClassTimeout
	case errors.Is(err, wire.ErrCorrupt):
		return telemetry.ErrClassCorrupt
	case errors.Is(err, ErrOffline):
		s := err.Error()
		switch {
		case strings.Contains(s, "connection refused"):
			return telemetry.ErrClassRefused
		case strings.Contains(s, "timed out"), strings.Contains(s, "timeout"):
			return telemetry.ErrClassTimeout
		case strings.Contains(s, "closed"):
			return telemetry.ErrClassClosed
		default:
			return telemetry.ErrClassOffline
		}
	default:
		return telemetry.ErrClassApp
	}
}

// Evict closes every pooled connection to the peer. Wired to the breaker's
// open transition: a peer judged unhealthy should not keep warm sockets,
// and the half-open probe decides afresh. In-flight requests on evicted
// connections fail Transient.
func (p *PoolTransport) Evict(to addr.Addr) {
	p.mu.RLock()
	pp := p.peers[to]
	p.mu.RUnlock()
	if pp == nil {
		return
	}
	n := pp.evictAll()
	if n > 0 {
		p.evictions.Add(int64(n))
		p.tel.PoolEviction(n)
		p.publishGauges()
	}
}

// Close evicts every pool and stops the idle janitor. The transport is
// unusable afterwards.
func (p *PoolTransport) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.janitor.Stop()
	peers := make([]*peerPool, 0, len(p.peers))
	for _, pp := range p.peers {
		peers = append(peers, pp)
	}
	p.mu.Unlock()
	for _, pp := range peers {
		pp.evictAll()
	}
}

// reapInterval is how often the janitor reaps: half the idle timeout, and
// not more often than every 10 ms.
func (p *PoolTransport) reapInterval() time.Duration {
	return max(p.cfg.IdleTimeout/2, 10*time.Millisecond)
}

// reap is the janitor: it reaps idle connections and arms itself for the next
// round, unless the transport has closed. No goroutine waits between rounds.
func (p *PoolTransport) reap() {
	p.reapIdle()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.janitor.Reset(p.reapInterval())
	}
}

func (p *PoolTransport) reapIdle() {
	cutoff := time.Now().Add(-p.cfg.IdleTimeout).UnixNano()
	p.mu.RLock()
	pools := make([]*peerPool, 0, len(p.peers))
	for _, pp := range p.peers {
		pools = append(pools, pp)
	}
	p.mu.RUnlock()
	for _, pp := range pools {
		for _, mc := range pp.idleBefore(cutoff) {
			p.idleClose.Add(1)
			p.tel.PoolIdleClose()
			mc.close()
		}
	}
	p.publishGauges()
}

func (p *PoolTransport) pool(to addr.Addr) *peerPool {
	p.mu.RLock()
	pp := p.peers[to]
	p.mu.RUnlock()
	if pp != nil {
		return pp
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pp = p.peers[to]; pp == nil {
		pp = &peerPool{}
		p.peers[to] = pp
	}
	return pp
}

// peerPool holds one peer's connections.
type peerPool struct {
	mu    sync.Mutex
	conns []*muxConn
}

// acquire returns a live connection to the peer's current endpoint, read under
// the pool's lock so that a connection admit pooled to it is never dropped as
// stale: a pooled one while pick finds one worth riding, a fresh dial
// otherwise. Dialing happens outside the pool lock, so concurrent first
// callers may race extra dials and the endpoint may move under one; admit
// settles both.
func (pp *peerPool) acquire(p *PoolTransport, to addr.Addr) (mc *muxConn, reused bool, err error) {
	for {
		pp.mu.Lock()
		ep, _ := p.Endpoint(to)
		stale := pp.dropStale(ep)
		mc = pp.pick(p.cfg.Size)
		pp.mu.Unlock()
		for _, c := range stale {
			c.close()
		}
		if mc != nil {
			return mc, true, nil
		}
		if mc, err = p.dialConn(to, ep, pp); err != nil {
			return nil, false, err
		}
		if mc, reused = pp.admit(p, to, mc); mc != nil {
			return mc, reused, nil
		}
	}
}

// dropStale removes the connections that do not lead to ep, the peer's
// current endpoint, and returns them for the caller to close once pp.mu is
// released (closing takes it). SetEndpoint evicts, but between its writing the
// mapping and its eviction a pooled connection is already stale.
func (pp *peerPool) dropStale(ep string) (stale []*muxConn) {
	kept := pp.conns[:0]
	for _, c := range pp.conns {
		if c.ep == ep {
			kept = append(kept, c)
		} else {
			stale = append(stale, c)
		}
	}
	pp.conns = kept
	return stale
}

// pick is the pool's one growth rule: it returns the pooled connection the
// next call should ride — the least loaded, so an idle one whenever there is
// one — or nil when the pool wants another connection: it is empty, or it is
// below size and every connection in it already carries
// serveBinaryConcurrency calls. That is the number at which the server stops
// reading a stream (tcp.go), so the first at which a second stream adds
// capacity; below it a call in flight on a multiplexed stream is mostly one
// waiting for its next hop, not one keeping the stream busy.
func (pp *peerPool) pick(size int) *muxConn {
	var (
		best *muxConn
		load int32
	)
	for _, c := range pp.conns {
		if l := c.inflight.Load(); best == nil || l < load {
			best, load = c, l
		}
	}
	if load >= serveBinaryConcurrency && len(pp.conns) < size {
		return nil
	}
	return best
}

// admit pools a freshly dialled connection and returns the connection the
// caller should use. Two things may have happened while it dialled. The peer's
// endpoint moved: mc leads to the old one, SetEndpoint's eviction has already
// run and would never find it, so it is closed and a nil use sends the caller
// to dial again. Or concurrent callers pooled theirs first and pick no longer
// asks for another: the caller shares the one pick names, and the surplus dial
// is dropped.
func (pp *peerPool) admit(p *PoolTransport, to addr.Addr, mc *muxConn) (use *muxConn, reused bool) {
	pp.mu.Lock()
	if ep, _ := p.Endpoint(to); ep != mc.ep {
		pp.mu.Unlock()
		mc.close()
		return nil, false
	}
	if existing := pp.pick(p.cfg.Size); existing != nil {
		pp.mu.Unlock()
		mc.close()
		return existing, true
	}
	pp.conns = append(pp.conns, mc)
	pp.mu.Unlock()
	return mc, false
}

func (pp *peerPool) remove(mc *muxConn) {
	pp.mu.Lock()
	for i, c := range pp.conns {
		if c == mc {
			pp.conns = append(pp.conns[:i], pp.conns[i+1:]...)
			break
		}
	}
	pp.mu.Unlock()
}

func (pp *peerPool) evictAll() int {
	pp.mu.Lock()
	conns := pp.conns
	pp.conns = nil
	pp.mu.Unlock()
	for _, mc := range conns {
		mc.close()
	}
	return len(conns)
}

func (pp *peerPool) idleBefore(cutoff int64) []*muxConn {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	var idle []*muxConn
	kept := pp.conns[:0]
	for _, mc := range pp.conns {
		if mc.inflight.Load() == 0 && mc.lastUse.Load() < cutoff {
			idle = append(idle, mc)
		} else {
			kept = append(kept, mc)
		}
	}
	pp.conns = kept
	return idle
}

// dialConn establishes one connection to the peer. pp is the peer's pool,
// which the connection removes itself from when it fails.
func (p *PoolTransport) dialConn(to addr.Addr, ep string, pp *peerPool) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", ep, p.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %v (%s): %v", ErrOffline, to, ep, err)
	}
	mc := &muxConn{
		pt:      p,
		pool:    pp,
		peer:    to,
		ep:      ep,
		conn:    conn,
		br:      bufio.NewReaderSize(conn, frameReadBuffer),
		pending: make(map[uint32]*callSlot),
	}
	mc.lastUse.Store(time.Now().UnixNano())
	p.dials.Add(1)
	p.open.Add(1)
	p.tel.PoolDial()
	p.publishGauges()
	return mc, nil
}

// muxConn is one pooled connection. No goroutine of its own reads it: while
// calls are pending exactly one of their callers holds the reader role and
// demultiplexes response frames to the others by sequence id; an idle
// connection has no reader at all.
type muxConn struct {
	pt   *PoolTransport
	pool *peerPool
	peer addr.Addr
	ep   string // the endpoint dialled, which the peer may since have left
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes writers
	seq uint32     // next sequence id, under wmu

	mu sync.Mutex
	// reader is the call holding the reader role, nil when none does;
	// pending holds every other call awaiting its response. pending is
	// non-empty only while reader is set.
	reader  *callSlot
	pending map[uint32]*callSlot
	dead    bool
	deadErr error

	// armed is the read deadline last set on conn. Only the reader touches
	// it; the role passes under mu.
	armed time.Time

	lastUse  atomic.Int64
	inflight atomic.Int32
}

// callSlot is where one in-flight call waits. Slots are pooled. A pending
// slot is sent to exactly once — its response or the reader role by the
// reader, or nil by fail — and only while it is pending, so a slot that
// took the reader role is sent nothing more; its owner puts it back only
// after receiving that send, so a reused slot never holds a previous
// owner's reply.
type callSlot struct {
	ch       chan *wire.Message // capacity 1
	seq      uint32
	deadline time.Time // when the reply is overdue
}

var callSlots = sync.Pool{New: func() any {
	return &callSlot{ch: make(chan *wire.Message, 1)}
}}

// takeReader is sent to a pending call in place of its response: the
// reader's own response has arrived, and the role is now this caller's.
var takeReader = new(wire.Message)

// call runs one round trip. Errors are Transient (ErrOffline-wrapped)
// unless the response itself was undecodable (ErrCorrupt via the reader).
func (m *muxConn) call(msg *wire.Message, ioTimeout time.Duration) (*wire.Message, error) {
	m.inflight.Add(1)
	defer func() {
		m.inflight.Add(-1)
		m.lastUse.Store(time.Now().UnixNano())
	}()
	slot := callSlots.Get().(*callSlot)
	m.wmu.Lock()
	m.seq++
	slot.seq = m.seq
	slot.deadline = time.Now().Add(ioTimeout)
	m.mu.Lock()
	if m.dead {
		// Registered against a dying connection: fail now, before writing.
		err := m.deadErr
		m.mu.Unlock()
		m.wmu.Unlock()
		callSlots.Put(slot)
		return nil, err
	}
	reading := m.reader == nil
	if reading {
		m.reader = slot
	} else {
		m.pending[slot.seq] = slot
	}
	m.mu.Unlock()
	m.conn.SetWriteDeadline(slot.deadline)
	err := wire.WriteFrame(m.conn, slot.seq, 0, msg)
	m.wmu.Unlock()
	if err != nil {
		m.fail(fmt.Errorf("%w: send to %v: %v", ErrOffline, m.peer, err))
	}
	var resp *wire.Message
	if !reading {
		// The one send a pending slot is owed: the response, the reader
		// role, or nil from fail — ours above, or anyone's who saw the
		// connection die.
		resp = <-slot.ch
		reading = resp == takeReader
	}
	if reading {
		resp = nil
		if err == nil {
			resp = m.read(slot)
		}
		m.passReader()
	}
	callSlots.Put(slot)
	if resp == nil || err != nil {
		m.mu.Lock()
		deadErr := m.deadErr
		m.mu.Unlock()
		return nil, deadErr
	}
	return resp, nil
}

// read holds the reader role for own's caller: it hands each response
// frame to the pending call it answers until own's arrives, which it
// returns, or the connection fails, when it returns nil. The read deadline
// is the earliest pending one, so a response that misses its deadline —
// one stuck response poisons the stream ordering for everyone — fails the
// connection whichever caller is reading.
func (m *muxConn) read(own *callSlot) *wire.Message {
	for {
		m.mu.Lock()
		next := own
		for _, s := range m.pending {
			if s.deadline.Before(next.deadline) {
				next = s
			}
		}
		m.mu.Unlock()
		if !next.deadline.Equal(m.armed) {
			m.armed = next.deadline
			m.conn.SetReadDeadline(next.deadline)
		}
		seq, flags, resp, err := wire.ReadFrame(m.br)
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			err = fmt.Errorf("%w: %v: response %d timed out", ErrOffline, m.peer, next.seq)
		case errors.Is(err, wire.ErrCorrupt):
			err = fmt.Errorf("receive from %v: %w", m.peer, err)
		case err != nil:
			err = fmt.Errorf("%w: %v: connection lost: %v", ErrOffline, m.peer, err)
		case flags&wire.FlagResponse == 0:
			continue // servers do not send requests on this stream
		case seq == own.seq:
			return resp
		default:
			m.mu.Lock()
			slot := m.pending[seq]
			delete(m.pending, seq)
			m.mu.Unlock()
			if slot != nil {
				slot.ch <- resp
			}
			continue
		}
		m.fail(err)
		return nil
	}
}

// passReader gives up the reader role: to the youngest pending call — with
// responses arriving about in request order its own comes last, so the role
// changes hands least — or to nobody when none is pending (or the connection
// is dead, which drained them).
func (m *muxConn) passReader() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reader = nil
	for _, s := range m.pending {
		if m.reader == nil || s.deadline.After(m.reader.deadline) {
			m.reader = s
		}
	}
	if m.reader != nil {
		delete(m.pending, m.reader.seq)
		m.reader.ch <- takeReader
	}
}

// fail marks the connection dead with the given error, closes it — which
// ends the reader's read — removes it from its pool, and drains every
// pending caller with a nil send (their error is deadErr). Idempotent; the
// first error wins.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.deadErr = err
	lost := m.reader != nil // calls were in flight
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()

	m.conn.Close()
	m.pool.remove(m)
	m.pt.open.Add(-1)
	if lost {
		m.pt.connLost.Add(1)
		m.pt.tel.PoolConnLost()
	}
	for _, slot := range pending {
		slot.ch <- nil
	}
	m.pt.publishGauges()
}

// close shuts the connection down without an error cause (eviction, idle
// reaping). In-flight calls fail Transient.
func (m *muxConn) close() {
	m.fail(fmt.Errorf("%w: %v: connection closed by pool", ErrOffline, m.peer))
}
