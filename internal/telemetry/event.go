package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// SchemaVersion is the version stamped into every emitted event (the `v`
// field). Consumers must reject events with a version they do not know.
// Bump it on any incompatible change to Event's encoding; the golden test
// in event_test.go pins the current encoding.
const SchemaVersion = 1

// Event is one structured telemetry event. The simulator (`pgridsim
// -events`) and the networked node (`pgridnode -events`) emit the same
// schema, so one toolchain analyzes both.
//
// Encoded as a single JSON line:
//
//	{"v":1,"ts":1700000000000000000,"node":3,"kind":"exchange","attrs":{"case":"1","depth":0}}
//
// `ts` is Unix nanoseconds (0 when the producer has no clock, e.g. golden
// tests). `node` is the logical peer id, or -1 for a driver that is not a
// peer (the simulator engine, a client tool).
type Event struct {
	V     int            `json:"v"`
	TS    int64          `json:"ts"`
	Node  int            `json:"node"`
	Kind  string         `json:"kind"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Event kinds emitted by pgrid. The set is open: consumers must ignore
// kinds they do not know.
const (
	// KindExchange is one meeting (Fig. 3), attrs: case, lc, depth, a1, a2.
	// The simulator emits it for the meeting's top-level exchange only
	// (depth 0); the recursive exchanges it triggers are counted in
	// pgrid_exchange_total and pgrid_exchange_case_total.
	KindExchange = "exchange"
	// KindQuery is one completed search, attrs: key, found, hops,
	// backtracks.
	KindQuery = "query"
	// KindRound is a periodic simulator sample, attrs: meetings,
	// exchanges, avg_path_len, target.
	KindRound = "round"
	// KindBuild is the simulator's end-of-construction summary, attrs:
	// n, meetings, exchanges, avg_path_len, converged, seconds.
	KindBuild = "build"
	// KindRPC is one client-side RPC completion, attrs: kind (wire kind
	// name), peer (remote node id), us (duration in microseconds).
	KindRPC = "rpc"
)

// JSONLSink writes one JSON line per event to an io.Writer, buffered. It
// is the one event sink, and it is synchronous: an emitter encodes its
// line into the sink's buffer under the sink's mutex and returns, so no
// event is queued and none can be dropped. Lines from one goroutine keep
// their order; lines from several are in the order they took the mutex.
// The typed kinds (exchange, query, rpc) are encoded field by field
// without allocating; the rare generic ones go through json.Marshal.
// Errors are sticky and reported by Err/Flush rather than per-event, so
// emitters never have to handle sink failures inline.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // reused per-event encode buffer, guarded by mu
	err error
}

// NewJSONLSink returns a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit writes one event of any kind.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.writeLocked(b)
}

// The typed emitters write exactly what Emit would write for the
// equivalent Event: json.Marshal orders a map's keys, so the attrs appear
// sorted.

func (s *JSONLSink) emitExchange(ts int64, node int, caseName string, lc, depth, a1, a2 int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.headLocked(ts, node, `exchange","attrs":{"a1":`)
	b = strconv.AppendInt(b, int64(a1), 10)
	b = append(b, `,"a2":`...)
	b = strconv.AppendInt(b, int64(a2), 10)
	b = append(b, `,"case":`...)
	b = appendString(b, caseName)
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, int64(depth), 10)
	b = append(b, `,"lc":`...)
	b = strconv.AppendInt(b, int64(lc), 10)
	s.endLocked(b)
}

func (s *JSONLSink) emitQuery(ts int64, node int, key string, found bool, hops, backtracks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.headLocked(ts, node, `query","attrs":{"backtracks":`)
	b = strconv.AppendInt(b, int64(backtracks), 10)
	b = append(b, `,"found":`...)
	b = strconv.AppendBool(b, found)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(hops), 10)
	b = append(b, `,"key":`...)
	b = appendString(b, key)
	s.endLocked(b)
}

func (s *JSONLSink) emitRPC(ts int64, node int, kind string, peer int, us int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.headLocked(ts, node, `rpc","attrs":{"kind":`)
	b = appendString(b, kind)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(peer), 10)
	b = append(b, `,"us":`...)
	b = strconv.AppendInt(b, us, 10)
	s.endLocked(b)
}

// headLocked starts a line in the sink's buffer: the envelope up to the
// kind, whose closing quote and first attribute key the caller passes in
// rest.
func (s *JSONLSink) headLocked(ts int64, node int, rest string) []byte {
	b := append(s.buf[:0], `{"v":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, `,"kind":"`...)
	return append(b, rest...)
}

// endLocked closes a typed line's attrs and envelope, writes the line and
// keeps its buffer for the next one.
func (s *JSONLSink) endLocked(b []byte) {
	b = append(b, '}', '}')
	s.buf = b[:0]
	s.writeLocked(b)
}

// writeLocked writes one encoded line. A sink that has failed writes
// nothing more.
func (s *JSONLSink) writeLocked(line []byte) {
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		return
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
	}
}

// Flush writes buffered events through and returns the first error the
// sink has seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}
