package trace

import "sync"

// Recorder is a fixed-size flight recorder: a ring buffer of the most
// recent sampled traces a node saw. Every node along a traced route
// records its own view (its span plus everything downstream of it), so
// scraping the recorders of a community reassembles who participated in
// any recent trace id.
//
// All methods are nil-safe no-ops, mirroring telemetry.Instruments, so
// nodes thread a possibly-nil *Recorder unconditionally.
type Recorder struct {
	mu    sync.Mutex
	buf   []Trace
	next  int
	full  bool
	total uint64
}

// NewRecorder returns a recorder keeping the last capacity traces;
// capacity <= 0 returns nil (recording disabled).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{buf: make([]Trace, capacity)}
}

// Record stores one trace, evicting the oldest when full.
func (r *Recorder) Record(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
}

// Len returns the number of traces currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
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
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Trace, 0, limit)
	for i := 0; i < limit; i++ {
		// Walk backwards from the most recently written slot.
		idx := (r.next - 1 - i + len(r.buf)*2) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}
