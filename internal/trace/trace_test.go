package trace

import (
	"testing"

	"pgrid/internal/bitpath"
)

func TestRenderMatchesSimulatorFormat(t *testing.T) {
	spans := []Span{
		{Peer: 3, Path: bitpath.Empty, Level: 0},
		{Peer: 17, Path: bitpath.MustParse("01"), Level: 1, Backtracked: true},
		{Peer: 9, Path: bitpath.MustParse("0110"), Level: 2, Matched: true},
	}
	got := Render(bitpath.MustParse("0110"), spans, true, 2)
	want := "key 0110: addr(3)[ε/0] → addr(17)[01/1]↩ → addr(9)[0110/2] ✓ (2 msgs)"
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}

	miss := Render(bitpath.MustParse("1"), spans[:1], false, 0)
	if want := "key 1: addr(3)[ε/0] ✗ (0 msgs)"; miss != want {
		t.Errorf("Render = %q, want %q", miss, want)
	}
}

func TestTraceStringUsesRender(t *testing.T) {
	tr := Trace{
		TraceID:  42,
		Key:      bitpath.MustParse("10"),
		Found:    true,
		Messages: 1,
		Spans: []Span{
			{Peer: 0, Path: bitpath.MustParse("0"), Level: 0},
			{Peer: 1, Path: bitpath.MustParse("10"), Level: 0, Matched: true},
		},
	}
	if got, want := tr.String(), Render(tr.Key, tr.Spans, true, 1); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSpanContext(t *testing.T) {
	var nilCtx *SpanContext
	if nilCtx.Alive() {
		t.Error("nil context reported alive")
	}
	if (&SpanContext{Sampled: true}).Alive() {
		t.Error("zero trace id reported alive")
	}
	c := SpanContext{TraceID: 7, Budget: 2, Sampled: true}
	if !c.Alive() {
		t.Error("sampled context reported dead")
	}
	child := c.Child(99)
	if child.Parent != 99 || child.Budget != 1 || child.TraceID != 7 || !child.Sampled {
		t.Errorf("Child = %+v", child)
	}
}

func TestNewTraceID(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		id := NewTraceID(i, 3)
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatalf("collision at %d", i)
		}
		seen[id] = true
	}
	if NewTraceID(1, 2) == NewTraceID(2, 1) {
		t.Error("argument order ignored")
	}
}

func TestRecorderRing(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record(Trace{}) // must not panic
	if nilRec.Len() != 0 || nilRec.Total() != 0 || nilRec.Snapshot(0) != nil {
		t.Error("nil recorder not inert")
	}
	if NewRecorder(0) != nil {
		t.Error("capacity 0 should disable recording")
	}

	r := NewRecorder(3)
	for i := uint64(1); i <= 5; i++ {
		r.Record(Trace{TraceID: i})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	got := r.Snapshot(0)
	if len(got) != 3 || got[0].TraceID != 5 || got[1].TraceID != 4 || got[2].TraceID != 3 {
		t.Fatalf("snapshot = %+v", got)
	}
	if lim := r.Snapshot(2); len(lim) != 2 || lim[0].TraceID != 5 {
		t.Fatalf("limited snapshot = %+v", lim)
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Trace{TraceID: 1})
	r.Record(Trace{TraceID: 2})
	got := r.Snapshot(0)
	if len(got) != 2 || got[0].TraceID != 2 || got[1].TraceID != 1 {
		t.Fatalf("snapshot = %+v", got)
	}
	if big := r.Snapshot(100); len(big) != 2 {
		t.Fatalf("over-limit snapshot = %+v", big)
	}
}

// TestFootprintBudgetRecorder: a recorder that grows its ring as traces
// arrive and then wraps answers Len, Total and Snapshot(limit) exactly as a
// ring of its full capacity would, its backing array never exceeds that
// capacity, and a recorder that has recorded nothing holds no array.
func TestFootprintBudgetRecorder(t *testing.T) {
	for _, capacity := range []int{1, 3, 256} {
		r := NewRecorder(capacity)
		if r.buf != nil || r.Len() != 0 || len(r.Snapshot(0)) != 0 {
			t.Fatalf("cap %d: an unused recorder holds %d slots", capacity, cap(r.buf))
		}
		var all []uint64 // every id recorded, oldest first
		for id := uint64(1); id <= uint64(3*capacity+2); id++ {
			r.Record(Trace{TraceID: id})
			all = append(all, id)
			if cap(r.buf) > capacity {
				t.Fatalf("cap %d: after %d traces the ring holds %d slots", capacity, id, cap(r.buf))
			}
			held := all[max(len(all)-capacity, 0):]
			if r.Len() != len(held) || r.Total() != id {
				t.Fatalf("cap %d, %d traces: len %d total %d, want %d and %d", capacity, id, r.Len(), r.Total(), len(held), id)
			}
			for _, limit := range []int{0, 1, capacity / 2, capacity, capacity + 5} {
				want := len(held)
				if limit > 0 {
					want = min(limit, want)
				}
				got := r.Snapshot(limit)
				if len(got) != want {
					t.Fatalf("cap %d, %d traces: Snapshot(%d) holds %d, want %d", capacity, id, limit, len(got), want)
				}
				for i, tr := range got {
					if tr.TraceID != held[len(held)-1-i] {
						t.Fatalf("cap %d, %d traces: Snapshot(%d)[%d] = %d, want %d", capacity, id, limit, i, tr.TraceID, held[len(held)-1-i])
					}
				}
			}
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(16)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				r.Record(Trace{TraceID: uint64(g*1000 + i + 1)})
				r.Snapshot(4)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if r.Total() != 2000 {
		t.Fatalf("total = %d", r.Total())
	}
	for _, tr := range r.Snapshot(0) {
		if tr.TraceID == 0 {
			t.Fatal("zero trace recorded")
		}
	}
}

func TestMix64(t *testing.T) {
	if Mix64(1) == Mix64(2) {
		t.Error("mix collides on adjacent inputs")
	}
	if Mix64(1) == 1 || Mix64(2) == 2 {
		t.Error("mix looks like identity")
	}
	var spread uint64
	for i := uint64(1); i <= 64; i++ {
		spread |= Mix64(i)
	}
	if spread != ^uint64(0) {
		t.Errorf("mix of small inputs leaves bits cold: %016x", spread)
	}
}
