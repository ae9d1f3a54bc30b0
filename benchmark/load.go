package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is what executing one op yields. A miss is an answer the system
// could not give because the peers holding it were offline — the paper's
// availability question (Eq. 3). A wrong answer is never acceptable.
type outcome struct {
	msgs   int // messages spent, the paper's cost unit
	aux    int // queries of a majority read, replicas of a write
	status uint8
}

const (
	statusOK uint8 = iota
	statusMiss
	statusWrong
)

// kindWindow is one op type's part of a window.
type kindWindow struct {
	n, msgs, aux int64
	lat          []int64 // ns, sorted
}

// window is what one stretch of load adds up to.
type window struct {
	elapsed            time.Duration
	ops, misses, wrong int64
	msgs               int64
	lat                []int64 // ns per op, sorted
	byKind             [numOpKinds]kindWindow
	spans              []span // one per op (traced runs only)

	// Whole-process deltas over the window.
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	cpu                 time.Duration
}

func (w *window) opsPerS() float64 { return float64(w.ops) / w.elapsed.Seconds() }

func (w *window) availability() float64 {
	if w.ops == 0 {
		return 0
	}
	return 1 - float64(w.misses+w.wrong)/float64(w.ops)
}

// loader drives a closed loop: each of its workers issues its next op only
// when the previous one has completed. Workers claim op indexes from one
// counter, so the ops executed are always a prefix of the same stream.
type loader struct {
	gen     *opGen
	workers int
	exec    func(worker int, o op) outcome
	rec     *recorder      // nil in an untraced run
	opNow   []atomic.Int64 // the op each worker is executing, for its span wrapper

	next atomic.Int64
}

func newLoader(gen *opGen, workers int, rec *recorder) *loader {
	return &loader{gen: gen, workers: workers, rec: rec, opNow: make([]atomic.Int64, workers)}
}

// run executes ops until maxOps have been claimed or d has passed,
// whichever is given (0 means no such limit) and comes first.
func (l *loader) run(maxOps int64, d time.Duration) *window {
	limit := int64(math.MaxInt64)
	if maxOps > 0 {
		limit = l.next.Load() + maxOps
	}
	tallies := make([]window, l.workers)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			recording := l.rec != nil && l.rec.on.Load()
			for {
				if d > 0 && time.Since(start) >= d {
					return
				}
				k := l.next.Add(1) - 1
				if k >= limit {
					return
				}
				o := l.gen.at(k)
				l.opNow[w].Store(k)
				t0 := time.Now()
				out := l.exec(w, o)
				dt := int64(time.Since(t0))
				t.ops++
				t.msgs += int64(out.msgs)
				switch out.status {
				case statusMiss:
					t.misses++
				case statusWrong:
					t.wrong++
				}
				kw := &t.byKind[o.kind]
				kw.n++
				kw.msgs += int64(out.msgs)
				kw.aux += int64(out.aux)
				kw.lat = append(kw.lat, dt)
				if recording {
					s0 := int64(t0.Sub(l.rec.epoch))
					t.spans = append(t.spans, span{layer: layerOp, kind: uint8(o.kind), stack: clientStack,
						to: int32(o.entries[0]), op: k, start: s0, end: s0 + dt,
						err: out.status != statusOK, a: int32(out.msgs), b: int32(out.aux)})
				}
			}
		}(w)
	}
	wg.Wait()
	win := &window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	if l.next.Load() > limit {
		l.next.Store(limit) // indexes claimed past the limit were not executed
	}

	win.mallocs = after.Mallocs - before.Mallocs
	win.allocBytes = after.TotalAlloc - before.TotalAlloc
	win.gcCycles = after.NumGC - before.NumGC
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for i := range tallies {
		t := &tallies[i]
		win.ops += t.ops
		win.misses += t.misses
		win.wrong += t.wrong
		win.msgs += t.msgs
		win.spans = append(win.spans, t.spans...)
		for k := range t.byKind {
			kw := &win.byKind[k]
			kw.n += t.byKind[k].n
			kw.msgs += t.byKind[k].msgs
			kw.aux += t.byKind[k].aux
			kw.lat = append(kw.lat, t.byKind[k].lat...)
		}
	}
	for k := range win.byKind {
		slices.Sort(win.byKind[k].lat)
		win.lat = append(win.lat, win.byKind[k].lat...)
	}
	slices.Sort(win.lat)
	return win
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// reportWindow stores the metrics every workload derives from a window in
// the same way: the gated ones in an untraced run, the runtime's per-layer
// ones in a traced run (set ignores the other list), and the timings in
// both. The timings come from timed — the window itself, or in a traced run
// the stretch before it in which the span wrappers were idle.
func reportWindow(r *result, w, timed *window) {
	r.set("ops_per_s", timed.opsPerS())
	r.setQ("lat_p50_us", quantile(timed.lat, 0.50)/1e3, len(timed.lat))
	r.setQ("lat_p99_us", quantile(timed.lat, 0.99)/1e3, len(timed.lat))

	ops := float64(max(w.ops, 1))
	r.Attempted = w.ops
	r.set("availability", w.availability())
	r.set("msgs_per_op", float64(w.msgs)/ops)
	r.set("allocs_per_op", float64(w.mallocs)/ops)
	r.set("rss_peak_mb", peakRSSMB())

	r.set("runtime.cpu_us_per_op", float64(w.cpu.Microseconds())/ops)
	r.set("runtime.cores_busy", w.cpu.Seconds()/w.elapsed.Seconds())
	r.set("runtime.gc_cycles", float64(w.gcCycles))
	r.set("runtime.gc_pause_ms", float64(w.gcPause.Microseconds())/1e3)
	r.set("runtime.alloc_kb_per_op", float64(w.allocBytes)/1024/ops)
	r.set("runtime.goroutines", float64(runtime.NumGoroutine()))
}

// heapLiveMB forces a collection and returns what survives it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
