package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, 0, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, _, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	m := &Message{
		Kind:  KindQuery,
		From:  3,
		Query: &QueryReq{Key: bitpath.MustParse("0101"), Level: 2},
	}
	got := roundTrip(t, m)
	if got.Kind != KindQuery || got.From != 3 {
		t.Fatalf("envelope = %+v", got)
	}
	if got.Query == nil || got.Query.Key != "0101" || got.Query.Level != 2 {
		t.Fatalf("payload = %+v", got.Query)
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindExchange,
		From: 7,
		Exchange: &ExchangeReq{
			Path:  bitpath.MustParse("01"),
			Refs:  []RefSet{{Addrs: []addr.Addr{1, 2}}, {Addrs: []addr.Addr{5}}},
			Depth: 1,
		},
	}
	got := roundTrip(t, m)
	if got.Exchange == nil || got.Exchange.Path != "01" || len(got.Exchange.Refs) != 2 {
		t.Fatalf("payload = %+v", got.Exchange)
	}
	if s := got.Exchange.Refs[0].ToSet(); !s.Contains(1) || !s.Contains(2) {
		t.Errorf("refs = %v", s.String())
	}
}

func TestExchangeRespRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindExchangeResp,
		From: 2,
		ExchangeResp: &ExchangeResp{
			BasePath:   bitpath.MustParse("0"),
			Extend:     true,
			ExtendBit:  1,
			ExtendRefs: RefSet{Addrs: []addr.Addr{9}},
			SetRefs:    map[int]RefSet{1: {Addrs: []addr.Addr{4, 5}}},
			ForwardTo:  []addr.Addr{11, 12},
			Handover: []store.Entry{
				{Key: bitpath.MustParse("10"), Name: "x", Holder: 1, Version: 3},
			},
		},
	}
	got := roundTrip(t, m)
	r := got.ExchangeResp
	if r == nil || !r.Extend || r.ExtendBit != 1 || len(r.ForwardTo) != 2 {
		t.Fatalf("payload = %+v", r)
	}
	if len(r.Handover) != 1 || r.Handover[0].Name != "x" || r.Handover[0].Version != 3 {
		t.Errorf("handover = %v", r.Handover)
	}
	if rs, ok := r.SetRefs[1]; !ok || len(rs.Addrs) != 2 {
		t.Errorf("setrefs = %v", r.SetRefs)
	}
}

func TestApplyGetInfoRoundTrip(t *testing.T) {
	e := store.Entry{Key: bitpath.MustParse("110"), Name: "f", Holder: 4, Version: 2}
	if got := roundTrip(t, &Message{Kind: KindApply, Apply: &ApplyReq{Entries: []store.Entry{e}}}); len(got.Apply.Entries) != 1 || got.Apply.Entries[0] != e {
		t.Errorf("apply = %+v", got.Apply)
	}
	list := []store.Entry{e, {Key: bitpath.MustParse("111"), Name: "g", Holder: 4, Version: 3}}
	if got := roundTrip(t, &Message{Kind: KindApply, Apply: &ApplyReq{Entries: list}}); !reflect.DeepEqual(got.Apply.Entries, list) {
		t.Errorf("apply list = %+v", got.Apply)
	}
	if got := roundTrip(t, &Message{Kind: KindGet, Get: &GetReq{Key: e.Key, Name: "f"}}); got.Get.Name != "f" {
		t.Errorf("get = %+v", got.Get)
	}
	info := &InfoResp{Addr: 5, Path: bitpath.MustParse("01"), Entries: 7}
	if got := roundTrip(t, &Message{Kind: KindInfoResp, InfoResp: info}); got.InfoResp.Entries != 7 {
		t.Errorf("info = %+v", got.InfoResp)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, uint32(i), 0, &Message{Kind: KindInfo, From: addr.Addr(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		seq, _, m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.From != addr.Addr(i) || seq != uint32(i) {
			t.Errorf("frame %d from = %v seq = %d", i, m.From, seq)
		}
	}
	if _, _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	frame, err := AppendFrame(nil, 1, 0, &Message{Kind: KindInfo})
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(MaxFrameSize + 1)
	frame[9], frame[10], frame[11], frame[12] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	if _, _, _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestReadTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, 0, &Message{Kind: KindInfo}); err != nil {
		t.Fatal(err)
	}
	tr := buf.Bytes()[:buf.Len()-1]
	if _, _, _, err := ReadFrame(bytes.NewReader(tr)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want an unexpected EOF", err)
	}
}

// failingWriter errors after accepting n bytes.
type failingWriter struct {
	n int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	take := len(p)
	if take > f.n {
		take = f.n
	}
	f.n -= take
	if take < len(p) {
		return take, io.ErrClosedPipe
	}
	return take, nil
}

func TestWriteMessageErrorPaths(t *testing.T) {
	m := &Message{Kind: KindInfo, From: 1}
	// The writer fails outright, then part-way through the frame.
	for _, n := range []int{0, 4} {
		if err := WriteFrame(&failingWriter{n: n}, 1, 0, m); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("write failing after %d bytes: err = %v", n, err)
		}
	}
	// A kind with no body format is refused before anything is written.
	if err := WriteFrame(io.Discard, 1, 0, &Message{Kind: 22}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("retired kind 22: err = %v, want ErrUnknownKind", err)
	}
	// A frame larger than the pooled buffers still round-trips under the cap.
	big := &Message{Kind: KindApply, Apply: &ApplyReq{Entries: []store.Entry{{
		Key: bitpath.MustParse("01"), Name: string(make([]byte, 1<<17)), Version: 1}}}}
	if got := roundTrip(t, big); got.Apply.Entries[0] != big.Apply.Entries[0] {
		t.Fatal("large frame did not round-trip")
	}
}

func TestReadMessageTruncatedLength(t *testing.T) {
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{magic0, magic1})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: err = %v, want an unexpected EOF", err)
	}
}

func TestRefSetConversions(t *testing.T) {
	s := addr.NewSet(3, 1, 2)
	rs := FromSet(s)
	back := rs.ToSet()
	if back.Len() != 3 || !back.Contains(1) || !back.Contains(2) || !back.Contains(3) {
		t.Errorf("round trip = %v", back.String())
	}
}

func TestKindString(t *testing.T) {
	if KindQuery.String() != "query" || KindExchangeResp.String() != "exchange-resp" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind = %q", Kind(200).String())
	}
}

func TestTracedRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindQueryResp, From: 2,
		QueryResp: &QueryResp{
			Found: true, Peer: 4, Path: bitpath.MustParse("0110"), Messages: 2,
			Spans: []trace.Span{
				{ID: 1, Peer: 2, Path: bitpath.MustParse("0"), Level: 0, Ref: 4, LatencyNS: 1200},
				{ID: 9, Parent: 1, Peer: 4, Path: bitpath.MustParse("0110"), Matched: true},
			},
		},
	}
	got := roundTrip(t, m)
	if len(got.QueryResp.Spans) != 2 || got.QueryResp.Spans[0] != m.QueryResp.Spans[0] ||
		got.QueryResp.Spans[1] != m.QueryResp.Spans[1] {
		t.Fatalf("spans did not round-trip: %+v", got.QueryResp.Spans)
	}
}

func TestTracesRoundTrip(t *testing.T) {
	req := roundTrip(t, &Message{Kind: KindObserve, From: 3,
		Observe: &ObserveReq{Asks: AskTraces, TraceLimit: 8}}).Observe
	if req == nil || req.Asks != AskTraces || req.TraceLimit != 8 {
		t.Fatalf("traces ask did not round-trip: %+v", req)
	}
	m := &Message{
		Kind: KindObserveResp, From: 1,
		ObserveResp: &ObserveResp{Traces: &TracesColumn{
			Total: 12,
			Traces: []trace.Trace{{
				TraceID: 99, Key: bitpath.MustParse("101"), Found: true, Messages: 1,
				Spans: []trace.Span{{ID: 3, Peer: 1, Path: bitpath.MustParse("1"), Matched: true}},
			}},
		}},
	}
	got := roundTrip(t, m)
	tr := got.ObserveResp.Traces
	if tr == nil || tr.Total != 12 || len(tr.Traces) != 1 || tr.Traces[0].TraceID != 99 {
		t.Fatalf("traces did not round-trip: %+v", tr)
	}
	if !got.ObserveResp.Answers(AskTraces) || got.ObserveResp.Answers(AskTraces|AskHealth) {
		t.Fatalf("traces column answers: %+v", got.ObserveResp)
	}
}

// TestMetricsRoundTrip covers the metrics column, asked for alone and as
// an empty (telemetry-disabled) snapshot.
func TestMetricsRoundTrip(t *testing.T) {
	if req := roundTrip(t, &Message{Kind: KindObserve, From: 3, Observe: &ObserveReq{Asks: AskMetrics}}); req.Kind != KindObserve || req.From != 3 || req.Observe.Asks != AskMetrics {
		t.Fatalf("metrics ask round trip: %+v", req)
	}

	m := &Message{Kind: KindObserveResp, From: 2, ObserveResp: &ObserveResp{
		Metrics: &telemetry.MetricsSnapshot{
			Schema: telemetry.MetricsSchemaVersion,
			Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 42},
				{Name: "pgrid_health_liveness_permille", Value: -1}},
			Hists: []telemetry.QHistSnapshot{{Name: `pgrid_rpc_kind_latency_ns{kind="query"}`,
				SubBits: 4, Count: 3, Sum: 3000, Idx: []uint16{16, 200}, N: []int64{2, 1}}}}}}
	r := roundTrip(t, m).ObserveResp.Metrics
	if r == nil || r.Schema != telemetry.MetricsSchemaVersion || len(r.Stats) != 2 {
		t.Fatalf("metrics column did not round-trip: %+v", r)
	}
	h := r.Hists[0]
	if h.Name != m.ObserveResp.Metrics.Hists[0].Name || h.Count != 3 || h.Sum != 3000 ||
		len(h.Idx) != 2 || h.Idx[1] != 200 || h.N[0] != 2 {
		t.Fatalf("histogram snapshot did not round-trip: %+v", h)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}

	// Telemetry disabled: empty, schema-stamped snapshot.
	empty := roundTrip(t, &Message{Kind: KindObserveResp, From: 2,
		ObserveResp: &ObserveResp{Metrics: &telemetry.MetricsSnapshot{
			Schema: telemetry.MetricsSchemaVersion}}})
	if m := empty.ObserveResp.Metrics; m == nil || len(m.Stats) != 0 {
		t.Fatalf("empty snapshot round trip: %+v", empty.ObserveResp)
	}
}

// TestHistoryRoundTrip covers the history column, including the windowed
// ask and the empty history-disabled dump.
func TestHistoryRoundTrip(t *testing.T) {
	req := roundTrip(t, &Message{Kind: KindObserve, From: 3,
		Observe: &ObserveReq{Asks: AskHistory, WindowNS: 300e9, MaxPoints: 64}})
	if o := req.Observe; o == nil || o.WindowNS != 300e9 || o.MaxPoints != 64 {
		t.Fatalf("history ask round trip: %+v", req)
	}

	m := &Message{Kind: KindObserveResp, From: 2, ObserveResp: &ObserveResp{
		History: &telemetry.HistoryDump{
			Schema: telemetry.MetricsSchemaVersion, IntervalNS: 2e9,
			Points: []telemetry.HistoryPoint{
				{AtNS: 1e9, Snap: telemetry.MetricsSnapshot{
					Schema:       telemetry.MetricsSchemaVersion,
					StartEpochNS: 500, UptimeNS: 100,
					Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 1}}}},
				{AtNS: 3e9, Snap: telemetry.MetricsSnapshot{
					Schema:       telemetry.MetricsSchemaVersion,
					StartEpochNS: 500, UptimeNS: 2100,
					Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 5}},
					Hists: []telemetry.QHistSnapshot{{Name: "lat", SubBits: 4, Count: 1,
						Sum: 42, Idx: []uint16{7}, N: []int64{1},
						ExIdx: []uint16{7}, ExTrace: []uint64{0xbeef}}}}},
			},
		}}}
	d := *roundTrip(t, m).ObserveResp.History
	if d.Schema != telemetry.MetricsSchemaVersion || d.IntervalNS != 2e9 || len(d.Points) != 2 {
		t.Fatalf("history dump did not round-trip: %+v", d)
	}
	if d.Points[1].Snap.Hists[0].ExTrace[0] != 0xbeef {
		t.Fatalf("exemplar did not round-trip: %+v", d.Points[1].Snap.Hists[0])
	}
	if rate, ok := d.Rate("pgrid_rpc_served_total", 0); !ok || rate != 2 {
		t.Fatalf("round-tripped dump rate = %v, %v; want 2, true", rate, ok)
	}

	// History disabled: empty, schema-stamped dump.
	empty := roundTrip(t, &Message{Kind: KindObserveResp, From: 2,
		ObserveResp: &ObserveResp{History: &telemetry.HistoryDump{
			Schema: telemetry.MetricsSchemaVersion}}})
	if h := empty.ObserveResp.History; h == nil || len(h.Points) != 0 {
		t.Fatalf("empty dump round trip: %+v", empty.ObserveResp)
	}
}

func TestHealthRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindObserveResp, From: 2,
		ObserveResp: &ObserveResp{Health: &HealthColumn{
			Rounds: 7,
			Digest: health.Digest{
				Addr: 2, Path: bitpath.MustParse("10"),
				Entries: 5, MaxVersion: 41, IndexHash: 0x1234,
				RefCounts: []int{3, 2}, Buddies: 2,
				Liveness: []health.LevelProbe{
					{Level: 1, Live: 9, Dead: 0},
					{Level: 2, Live: 4, Dead: 2},
				},
			},
		}},
	}
	h := roundTrip(t, m).ObserveResp.Health
	if h == nil || h.Rounds != 7 {
		t.Fatalf("health column did not round-trip: %+v", h)
	}
	d, want := h.Digest, m.ObserveResp.Health.Digest
	if d.Addr != want.Addr || d.Path != want.Path || d.Entries != want.Entries ||
		d.MaxVersion != want.MaxVersion || d.IndexHash != want.IndexHash || d.Buddies != want.Buddies {
		t.Fatalf("digest mismatch: %+v vs %+v", d, want)
	}
	if len(d.RefCounts) != 2 || d.RefCounts[0] != 3 || d.RefCounts[1] != 2 {
		t.Fatalf("ref counts did not round-trip: %v", d.RefCounts)
	}
	if len(d.Liveness) != 2 || d.Liveness[0] != want.Liveness[0] || d.Liveness[1] != want.Liveness[1] {
		t.Fatalf("liveness did not round-trip: %+v", d.Liveness)
	}

	// The ask, with and without the liveness tallies.
	for _, asks := range []Ask{AskHealth | AskLiveness, AskHealth} {
		req := roundTrip(t, &Message{Kind: KindObserve, From: 1, Observe: &ObserveReq{Asks: asks}})
		if req.Observe == nil || req.Observe.Asks != asks {
			t.Fatalf("health ask did not round-trip: %+v", req.Observe)
		}
	}
}
