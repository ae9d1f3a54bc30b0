package trace

import "sync"

// Recorder is a bounded flight recorder: a ring buffer of the most recent
// sampled traces a node saw. Every node along a traced route records its
// own view (its span plus everything downstream of it), so scraping the
// recorders of a community reassembles who participated in any recent
// trace id. The ring grows as traces arrive, up to the capacity it was made
// with, and then overwrites the oldest — a node that is never traced holds
// no ring at all.
//
// All methods are nil-safe no-ops, mirroring telemetry.Instruments, so
// nodes thread a possibly-nil *Recorder unconditionally.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	buf      []Trace // len(buf) traces held, cap(buf) ≤ capacity
	next     int     // once buf is full, the slot of the oldest trace; 0 before
	total    uint64
}

// NewRecorder returns a recorder keeping the last capacity traces;
// capacity <= 0 returns nil (recording disabled).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{capacity: capacity}
}

// Record stores one trace, evicting the oldest when full.
func (r *Recorder) Record(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) == r.capacity {
		r.buf[r.next] = t
		r.next = (r.next + 1) % len(r.buf)
		return
	}
	if len(r.buf) == cap(r.buf) {
		grown := make([]Trace, len(r.buf), min(max(2*cap(r.buf), 1), r.capacity))
		copy(grown, r.buf)
		r.buf = grown
	}
	r.buf = append(r.buf, t)
}

// Len returns the number of traces currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns how many traces were ever recorded (including evicted
// ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to limit traces, newest first (limit <= 0 means
// all). The returned slice is a copy; spans are shared (traces are
// write-once).
func (r *Recorder) Snapshot(limit int) []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Trace, 0, limit)
	for i := 0; i < limit; i++ {
		// Walk backwards from the most recently written slot, which
		// precedes next (the end of buf while the ring is growing).
		idx := (r.next - 1 - i + n*2) % n
		out = append(out, r.buf[idx])
	}
	return out
}
