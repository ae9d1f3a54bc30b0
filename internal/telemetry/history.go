package telemetry

import (
	"sync"
	"time"
)

// History is a fixed-memory ring of periodic MetricsSnapshot samples —
// the node's flight-data recorder. A sampler appends one cumulative
// snapshot per interval; the ring keeps retention/interval of them
// (e.g. 2s × 5m → 150 points) and older points are overwritten in
// place, so memory is bounded for the life of the process. Every
// stored snapshot carries its incarnation stamp (StartEpochNS), so a
// restart in the middle of the window reads as a counter reset rather
// than a negative rate.
//
// Reads hand out a HistoryDump — an immutable, wire-shippable copy —
// and all rate/quantile math lives on the dump, so the same code runs
// server-side (against the local ring), client-side (against a
// federated dump), and in tests (against a synthetic one).
type History struct {
	mu       sync.Mutex
	interval time.Duration
	points   []HistoryPoint // ring storage
	next     int            // slot the next Record writes
	count    int            // valid points, ≤ len(points)
	total    int64          // lifetime samples accepted
	now      func() time.Time
}

// HistoryPoint is one periodic sample: the cumulative telemetry state
// at one wall-clock instant.
type HistoryPoint struct {
	AtNS int64
	Snap MetricsSnapshot
}

// HistoryDump is the immutable read/wire form of a History: points
// oldest-first, with the sampling resolution so consumers can label
// per-interval series. A dump with a single point degrades gracefully
// (no rates, instantaneous quantiles only) — that is what a ring sampled
// once holds.
type HistoryDump struct {
	Schema     int
	IntervalNS int64
	Points     []HistoryPoint
}

// historyMaxPoints bounds ring capacity regardless of the configured
// retention/interval ratio, keeping the "fixed-memory" promise even
// against a mis-typed flag (a snapshot is a few KB; 4096 of them stay
// in the tens of MB, and a history column stays far under the frame
// size cap).
const historyMaxPoints = 4096

// NewHistory returns a ring sampling at the given interval and keeping
// retention worth of points (at least 2, at most historyMaxPoints).
// Returns nil — and every method is nil-safe — when interval is
// non-positive, so callers gate the whole feature on one constructor.
func NewHistory(interval, retention time.Duration) *History {
	if interval <= 0 {
		return nil
	}
	n := int(retention / interval)
	if n < 2 {
		n = 2
	}
	if n > historyMaxPoints {
		n = historyMaxPoints
	}
	return &History{
		interval: interval,
		points:   make([]HistoryPoint, n),
		now:      time.Now,
	}
}

// Interval returns the sampling resolution (0 on nil).
func (h *History) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.interval
}

// Len returns the number of valid points currently held.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Total returns the lifetime number of samples recorded.
func (h *History) Total() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// SetNow overrides the clock (tests). Not synchronized; set before use.
func (h *History) SetNow(now func() time.Time) {
	if h == nil {
		return
	}
	h.now = now
}

// Record appends one sample stamped with the current time, overwriting
// the oldest point once the ring is full. No-op on nil.
func (h *History) Record(snap MetricsSnapshot) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.points[h.next] = HistoryPoint{AtNS: h.now().UnixNano(), Snap: snap}
	h.next = (h.next + 1) % len(h.points)
	if h.count < len(h.points) {
		h.count++
	}
	h.total++
}

// Dump copies out the points newer than window ago (0 = everything
// held), oldest-first, keeping at most maxPoints of the newest ones
// (0 = no cap). The copy shares snapshot slices with the ring — callers
// must treat dumps as read-only, which every consumer does.
func (h *History) Dump(window time.Duration, maxPoints int) HistoryDump {
	if h == nil {
		return HistoryDump{Schema: MetricsSchemaVersion}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	d := HistoryDump{Schema: MetricsSchemaVersion, IntervalNS: int64(h.interval)}
	cutoff := int64(0)
	if window > 0 {
		cutoff = h.now().Add(-window).UnixNano()
	}
	start := h.next - h.count
	if start < 0 {
		start += len(h.points)
	}
	for i := 0; i < h.count; i++ {
		p := h.points[(start+i)%len(h.points)]
		if p.AtNS < cutoff {
			continue
		}
		d.Points = append(d.Points, p)
	}
	if maxPoints > 0 && len(d.Points) > maxPoints {
		d.Points = d.Points[len(d.Points)-maxPoints:]
	}
	return d
}

// Span returns the wall-clock distance between the dump's oldest and
// newest points (0 with fewer than 2 points).
func (d HistoryDump) Span() time.Duration {
	if len(d.Points) < 2 {
		return 0
	}
	return time.Duration(d.Points[len(d.Points)-1].AtNS - d.Points[0].AtNS)
}

// Newest returns the most recent point (ok=false on an empty dump).
func (d HistoryDump) Newest() (HistoryPoint, bool) {
	if len(d.Points) == 0 {
		return HistoryPoint{}, false
	}
	return d.Points[len(d.Points)-1], true
}

// reset reports whether going from point a to point b crosses a process
// restart: the incarnation epoch changed, or (for epoch-less v1 peers)
// the monotonic uptime went backwards.
func historyReset(a, b MetricsSnapshot) bool {
	if !a.SameEpoch(b) {
		return true
	}
	return a.UptimeNS != 0 && b.UptimeNS != 0 && b.UptimeNS < a.UptimeNS
}

// Resets counts the restarts visible inside the dump.
func (d HistoryDump) Resets() int {
	n := 0
	for i := 1; i < len(d.Points); i++ {
		if historyReset(d.Points[i-1].Snap, d.Points[i].Snap) {
			n++
		}
	}
	return n
}

// Rate returns the average per-second increase of the named counter
// stat over the trailing window (0 = the whole dump). Restarts inside
// the window contribute the post-restart absolute value (the counter
// restarted from zero), never a negative delta. ok is false with fewer
// than two points in the window.
func (d HistoryDump) Rate(name string, window time.Duration) (perSec float64, ok bool) {
	pts := d.tail(window)
	if len(pts) < 2 {
		return 0, false
	}
	inc := int64(0)
	prev, prevOK := pts[0].Snap.Stat(name)
	for i := 1; i < len(pts); i++ {
		cur, curOK := pts[i].Snap.Stat(name)
		if !curOK {
			continue
		}
		switch {
		case historyReset(pts[i-1].Snap, pts[i].Snap) || (prevOK && cur < prev):
			inc += cur
		case prevOK && cur > prev:
			inc += cur - prev
		}
		prev, prevOK = cur, true
	}
	elapsed := pts[len(pts)-1].AtNS - pts[0].AtNS
	if elapsed <= 0 {
		return 0, false
	}
	return float64(inc) / (float64(elapsed) / 1e9), true
}

// RateSeries returns the per-interval rate of the named stat, oldest
// first — one value per adjacent point pair, for sparklines. Reset
// intervals report the post-restart absolute value over the gap.
func (d HistoryDump) RateSeries(name string) []float64 {
	if len(d.Points) < 2 {
		return nil
	}
	out := make([]float64, 0, len(d.Points)-1)
	for i := 1; i < len(d.Points); i++ {
		a, b := d.Points[i-1], d.Points[i]
		av, _ := a.Snap.Stat(name)
		bv, bok := b.Snap.Stat(name)
		dt := float64(b.AtNS-a.AtNS) / 1e9
		if !bok || dt <= 0 {
			out = append(out, 0)
			continue
		}
		delta := bv - av
		if historyReset(a.Snap, b.Snap) || delta < 0 {
			delta = bv
		}
		out = append(out, float64(delta)/dt)
	}
	return out
}

// WindowHist returns the delta of the named quantile histogram over the
// trailing window: newest point minus the best baseline at or before
// the window start (the same rule as the SLO engine's burn windows).
// A restart between baseline and newest falls back to the newest
// cumulative snapshot, stamped reset=true. ok is false when the dump
// never saw the histogram.
func (d HistoryDump) WindowHist(name string, window time.Duration) (delta QHistSnapshot, reset bool, ok bool) {
	if len(d.Points) == 0 {
		return QHistSnapshot{}, false, false
	}
	newest := d.Points[len(d.Points)-1]
	cur, curOK := newest.Snap.Hist(name)
	if !curOK {
		return QHistSnapshot{}, false, false
	}
	var base QHistSnapshot
	basePoint := -1
	if window > 0 {
		cutoff := newest.AtNS - int64(window)
		for i := len(d.Points) - 2; i >= 0; i-- {
			if d.Points[i].AtNS <= cutoff {
				basePoint = i
				break
			}
		}
		if basePoint < 0 && d.Points[0].AtNS > cutoff {
			// Whole dump is inside the window: everything it saw counts.
			return cur, false, true
		}
	} else {
		basePoint = 0
		if len(d.Points) == 1 {
			return cur, false, true
		}
	}
	if basePoint < 0 {
		basePoint = 0
	}
	for i := basePoint + 1; i < len(d.Points); i++ {
		if historyReset(d.Points[i-1].Snap, d.Points[i].Snap) {
			return cur, true, true
		}
	}
	base, _ = d.Points[basePoint].Snap.Hist(name)
	out, subReset, err := SubtractQHist(cur, base)
	if err != nil {
		return cur, true, true
	}
	return out, subReset, true
}

// QuantileSeries returns the per-interval p-quantile of the named
// histogram in nanoseconds, oldest first (0 where an interval saw no
// observations). Reset intervals use the post-restart cumulative state.
func (d HistoryDump) QuantileSeries(name string, p float64) []float64 {
	if len(d.Points) < 2 {
		return nil
	}
	out := make([]float64, 0, len(d.Points)-1)
	for i := 1; i < len(d.Points); i++ {
		a, _ := d.Points[i-1].Snap.Hist(name)
		b, bok := d.Points[i].Snap.Hist(name)
		if !bok {
			out = append(out, 0)
			continue
		}
		if historyReset(d.Points[i-1].Snap, d.Points[i].Snap) {
			out = append(out, float64(b.Quantile(p)))
			continue
		}
		delta, _, err := SubtractQHist(b, a)
		if err != nil || delta.Count == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, float64(delta.Quantile(p)))
	}
	return out
}

// tail returns the points within the trailing window (0 = all).
func (d HistoryDump) tail(window time.Duration) []HistoryPoint {
	if window <= 0 || len(d.Points) == 0 {
		return d.Points
	}
	cutoff := d.Points[len(d.Points)-1].AtNS - int64(window)
	for i, p := range d.Points {
		if p.AtNS >= cutoff {
			return d.Points[i:]
		}
	}
	return nil
}
