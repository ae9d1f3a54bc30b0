package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/raceflag"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// sampleMessages returns one representative message per kind, with every
// payload field populated (and a second, sparse variant where nil-ness
// matters). The golden-vector and round-trip tests both iterate this set, so
// a new kind that is added without extending it fails TestBinaryCoversAllKinds.
func sampleMessages() []*Message {
	p := bitpath.MustParse
	entry := store.Entry{Key: p("0110"), Name: "doc-17", Holder: 9, Version: 0x1122334455667788}
	snap := telemetry.MetricsSnapshot{
		StartEpochNS: 1700000000123456789, UptimeNS: 98765432100,
		Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 42},
			{Name: `pgrid_exchange_case_total{case="2a"}`, Value: -9}},
		Hists: []telemetry.QHistSnapshot{
			{Name: `pgrid_rpc_kind_latency_ns{kind="query"}`, SubBits: 4, Count: 7,
				Sum: 1234567, Idx: []uint16{3, 150, 900}, N: []int64{4, 2, 1},
				ExIdx: []uint16{150, 900}, ExTrace: []uint64{0xfeedface01, 0xfeedface02}},
			{Name: "pgrid_pool_acquire_wait_ns", SubBits: 4}}}
	// A snapshot without incarnation stamps or exemplars: its zero fields
	// still take their bytes.
	bare := telemetry.MetricsSnapshot{
		Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 17}},
		Hists: []telemetry.QHistSnapshot{
			{Name: `pgrid_rpc_served_latency_ns{kind="get"}`, SubBits: 4, Count: 2,
				Sum: 999, Idx: []uint16{40}, N: []int64{2}}}}
	span := trace.Span{ID: 0xdeadbeef01, Parent: 0xdeadbeef00, Peer: 7, Path: p("01"),
		Level: 2, Ref: 3, Matched: true, Backtracked: true, LatencyNS: 125000}
	all := &ObserveResp{ // every column, with data
		Links: &InfoResp{Addr: 33, Path: p("0101"), Refs: []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 3}}},
			Buddies: RefSet{Addrs: []addr.Addr{13}}, Entries: 44},
		Health: &HealthColumn{Rounds: 6, Digest: health.Digest{Addr: 33, Path: p("10"), Entries: 8,
			MaxVersion: 0x99, IndexHash: 0xdeadcafe, RefCounts: []int{2, 1, 3},
			Buddies: 2, Liveness: []health.LevelProbe{{Level: 1, Live: 5, Dead: 1},
				{Level: 2, Live: 2, Dead: 0}}}},
		Metrics: &snap,
		History: &telemetry.HistoryDump{
			IntervalNS: 2_000_000_000,
			Points: []telemetry.HistoryPoint{
				{AtNS: 1700000000000000000, Snap: snap},
				{AtNS: 1700000002000000000, Snap: bare},
				{AtNS: 1700000004000000000}}},
		Repair: &repair.Status{Enabled: true, Rounds: 12, Messages: 480,
			LastFaults: 3, LastHeals: 2, LastUnhealed: 1,
			Faults: []repair.Tally{{Name: repair.FaultDeadRef, N: 9},
				{Name: repair.FaultWrongSide, N: 4}},
			Heals: []repair.Tally{{Name: repair.ActionEvictRef, N: 11},
				{Name: repair.ActionSyncPull, N: 2}}},
		Traces: &TracesColumn{Total: 901,
			Traces: []trace.Trace{{TraceID: 0xabc, Key: p("0101"), Found: true,
				Messages: 3, Backtracks: 1, Spans: []trace.Span{span}}}}}
	return []*Message{
		{Kind: KindQuery, From: 1, Query: &QueryReq{Key: p("010011"), Level: 3,
			Ctx: &trace.SpanContext{TraceID: 0xfeedface, Parent: 77, Sampled: true}}},
		{Kind: KindQuery, From: 2, Query: &QueryReq{Key: p("1"), Level: 0}}, // untraced
		{Kind: KindQuery, From: addr.Nil},                                   // nil payload
		{Kind: KindQueryResp, From: 4, QueryResp: &QueryResp{Found: true, Peer: 11, Path: p("0100")}},
		{Kind: KindQueryResp, From: 4, QueryResp: &QueryResp{Found: false, Peer: addr.Nil}},
		{Kind: KindExchange, From: 5, Exchange: &ExchangeReq{Path: p("110"),
			Refs: []RefSet{{Addrs: []addr.Addr{1, 2}}, {}, {Addrs: []addr.Addr{9}}}, Depth: 2}},
		{Kind: KindExchangeResp, From: 6, ExchangeResp: &ExchangeResp{
			BasePath: p("110"), Extend: true, ExtendBit: 1,
			ExtendRefs: RefSet{Addrs: []addr.Addr{4}},
			SetRefs:    map[int]RefSet{1: {Addrs: []addr.Addr{2, 3}}, 3: {Addrs: []addr.Addr{8}}},
			AddBuddy:   true, ForwardTo: []addr.Addr{5, 6},
			Handover: []store.Entry{entry}}},
		{Kind: KindExchangeResp, From: 6, ExchangeResp: &ExchangeResp{BasePath: p("")}},
		{Kind: KindApply, From: 7, Apply: &ApplyReq{Entries: []store.Entry{entry}}},
		{Kind: KindApplyResp, From: 8, ApplyResp: &ApplyResp{Changed: true}},
		{Kind: KindGet, From: 9, Get: &GetReq{Key: p("00000001"), Name: "x"}},
		{Kind: KindGetResp, From: 10, GetResp: &GetResp{Entry: entry, Found: true}},
		{Kind: KindInfo, From: 11},
		{Kind: KindInfoResp, From: 12, InfoResp: &InfoResp{Addr: 12, Path: p("0101"),
			Refs:    []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 3}}},
			Buddies: RefSet{Addrs: []addr.Addr{13}}, Entries: 44}},
		{Kind: KindScan, From: 13, Scan: &ScanReq{Prefix: p("011")}},
		{Kind: KindScanResp, From: 14, ScanResp: &ScanResp{Entries: []store.Entry{entry, entry}}},
		{Kind: KindError, From: 17, Error: "node offline"},
		// The routed read (appended, so every digest above keeps its index):
		// a traced query two hops in with the read riding along, and the
		// answer that carries the entry back.
		{Kind: KindQuery, From: 1, Query: &QueryReq{Key: p("10"), Level: 2,
			Ctx:  &trace.SpanContext{TraceID: 0xfeedface, Parent: 77, Sampled: true},
			Read: &GetReq{Key: entry.Key, Name: entry.Name}}},
		{Kind: KindQuery, From: 2, Query: &QueryReq{Key: entry.Key, Read: &GetReq{Key: entry.Key}}}, // untraced, empty name
		{Kind: KindQueryResp, From: 4, QueryResp: &QueryResp{Found: true, Peer: 11,
			Path: p("0110"), Entry: entry, Has: true}},
		// The BFS visit (appended likewise): an Info request carrying the entry
		// to apply or the prefix to scan, and the answers that carry back what
		// the covering receiver did.
		{Kind: KindInfo, From: 11, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{entry}}}},
		{Kind: KindInfoResp, From: 12, InfoResp: &InfoResp{Addr: 12, Path: p("0110"),
			Refs: []RefSet{{Addrs: []addr.Addr{1}}}, Entries: 45, Applied: &ApplyResp{Changed: true}}},
		// The operator plane (appended likewise): an observe request naming
		// every ask, none, no payload and each column alone, and the answers —
		// every column with data, none, no payload, and each column alone as a
		// peer running without the feature answers it.
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskLinks | AskHealth | AskLiveness | AskMetrics |
			AskHistory | AskRepair | AskRepairNow | AskTraces, WindowNS: 300_000_000_000, MaxPoints: 64, TraceLimit: 32}},
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{}},
		{Kind: KindObserve, From: 32},
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskLinks}},
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskHealth}},
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskMetrics}},
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskHistory}}, // full retention
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskRepair}},
		{Kind: KindObserve, From: 32, Observe: &ObserveReq{Asks: AskTraces}}, // all retained
		{Kind: KindObserveResp, From: 33, ObserveResp: all},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{}},
		{Kind: KindObserveResp, From: 33},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Links: &InfoResp{Addr: 33}}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Health: &HealthColumn{ // no liveness asked
			Digest: health.Digest{Addr: 33, Path: p("10"), RefCounts: []int{1, 1}}}}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Metrics: &bare}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{History: &telemetry.HistoryDump{}}}, // history off
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Repair: &repair.Status{}}},          // repair off
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Traces: &TracesColumn{}}},           // tracing off
		// A handover or a repair push: three entries in one apply.
		{Kind: KindApply, From: 7, Apply: &ApplyReq{Entries: []store.Entry{entry,
			{Key: p("0111"), Name: "doc-18", Holder: 9, Version: 2}, {Key: p("01"), Holder: 3, Version: 1}}}},
		// Each column alone again, as a peer running the feature answers it.
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Health: all.Health}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Metrics: all.Metrics}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{History: all.History}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Repair: all.Repair}},
		{Kind: KindObserveResp, From: 33, ObserveResp: &ObserveResp{Traces: all.Traces}},
		// The scan rider (appended likewise): one naming the digests of the
		// lists its caller holds, one holding none yet, and the answers — the
		// entries with their digest, and "same", the digest alone.
		{Kind: KindInfo, From: 11, Info: &InfoReq{Scan: &ScanReq{Prefix: p("011"),
			Held: []uint64{0x0123456789abcdef, 0xfedcba9876543210}}}},
		{Kind: KindInfo, From: 11, Info: &InfoReq{Scan: &ScanReq{Prefix: p("011")}}},
		{Kind: KindInfoResp, From: 12, InfoResp: &InfoResp{Addr: 12, Path: p("01"),
			Refs: []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 3}}}, Entries: 44,
			Scanned: &ScanResp{Entries: []store.Entry{entry, entry}, Digest: 0x0123456789abcdef}}},
		{Kind: KindInfoResp, From: 12, InfoResp: &InfoResp{Addr: 12, Path: p("01"),
			Refs: []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 3}}}, Entries: 44,
			Scanned: &ScanResp{Digest: 0x0123456789abcdef, Same: true}}},
		// The scan rider's edge cases (appended likewise): every digest a rider
		// may name, the whole index under the empty prefix, and an answer with
		// nothing under the prefix, its digest 0.
		{Kind: KindInfo, From: 11, Info: &InfoReq{Scan: &ScanReq{Prefix: p("011"), Held: []uint64{
			0x0101010101010101, 0x0202020202020202, 0x0303030303030303, 0x0404040404040404,
			0x0505050505050505, 0x0606060606060606, 0x0707070707070707, 0x0808080808080808}}}},
		{Kind: KindInfo, From: 11, Info: &InfoReq{Scan: &ScanReq{Prefix: bitpath.Empty, Held: []uint64{0x0123456789abcdef}}}},
		{Kind: KindInfoResp, From: 12, InfoResp: &InfoResp{Addr: 12, Path: p("01"), Scanned: &ScanResp{}}},
		// A visit the search goes on from (appended likewise): the peer's path
		// and the references of the level the asker continues at.
		{Kind: KindQueryResp, From: 4, QueryResp: &QueryResp{Peer: addr.Nil, Path: p("0100"),
			Refs: RefSet{Addrs: []addr.Addr{5, 9, 130}}}},
		// ... and one whose level is wider than the 16 addresses a decoded
		// answer holds in its own object.
		{Kind: KindQueryResp, From: 4, QueryResp: &QueryResp{Peer: addr.Nil, Path: p("01001101"), Refs: RefSet{Addrs: []addr.Addr{
			100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111,
			112, 113, 114, 115, 116, 117, 118, 119, 120, 121, 122, 123}}}},
	}
}

// reservedKinds returns the codes kindNames labels kind(N): retired slots,
// which no build may reuse.
func reservedKinds() []Kind {
	var out []Kind
	for k, name := range kindNames {
		if name == fmt.Sprintf("kind(%d)", k) {
			out = append(out, Kind(k))
		}
	}
	return out
}

// TestBinaryCoversAllKinds pins that the sample corpus exercises every
// kind the codec knows, so forgetting to extend it is a test failure.
func TestBinaryCoversAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range sampleMessages() {
		seen[m.Kind] = true
	}
	for _, k := range reservedKinds() {
		seen[k] = true
	}
	for k := range kindNames {
		if !seen[Kind(k)] {
			t.Errorf("sampleMessages has no %v message", Kind(k))
		}
	}
}

// TestBinaryRoundTrip encodes every sample through the binary codec and
// requires an exact structural round trip, plus header fidelity.
func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 42, FlagResponse, m); err != nil {
			t.Fatalf("%v: encode: %v", m.Kind, err)
		}
		seq, flags, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		if seq != 42 || flags != FlagResponse {
			t.Fatalf("%v: header seq=%d flags=%d", m.Kind, seq, flags)
		}
		if !reflect.DeepEqual(wireContent(got), m) {
			t.Fatalf("%v round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

// wireContent returns m as the wire carries it: m itself, or, for a query or
// an info rider the codec decoded, a copy whose request no longer links the
// room it is to be answered in — the one field of a decoded message that is
// not wire content. Every other field is m's, so the round-trip tests compare
// all of them.
func wireContent(m *Message) *Message {
	switch {
	case m == nil:
		return m
	case m.Query != nil && m.Query.answer != nil:
		c, q := *m, *m.Query
		q.answer = nil
		c.Query = &q
		return &c
	case m.Info != nil && m.Info.answer != nil:
		c, i := *m, *m.Info
		i.answer = nil
		c.Info = &i
		return &c
	}
	return m
}

// TestCrossCodecGoldenVectors is the compat contract across versions:
// the frame this build encodes for every sample hashes to its recorded
// digest — most of them recorded from the last build that also carried the
// gob codec — so no change moves a byte a peer sends or expects unnoticed.
// Append a digest with each new sample; an existing one changes only with a
// deliberate change of what its frame carries (DESIGN §15.4: the metrics and
// history columns lost their schema stamp; §3: a query is one visit, so its
// trace context lost the hop budget and its answer the downstream counts and
// spans, and carries the references the asker goes on through), and a sample
// retires with the form it carried (the plain scan rider).
func TestCrossCodecGoldenVectors(t *testing.T) {
	samples := sampleMessages()
	if len(samples) != len(goldenFrameSums) {
		t.Fatalf("%d samples, %d golden digests", len(samples), len(goldenFrameSums))
	}
	for i, m := range samples {
		frame, err := AppendFrame(nil, 42, FlagResponse, m)
		if err != nil {
			t.Fatalf("sample %d (%v): encode: %v", i, m.Kind, err)
		}
		h := fnv.New64a()
		h.Write(frame)
		if got := h.Sum64(); got != goldenFrameSums[i] {
			t.Errorf("sample %d (%v): frame digest %#016x, golden %#016x:\n%x", i, m.Kind, got, goldenFrameSums[i], frame)
		}
	}
}

// goldenFrameSums[i] is the FNV-1a 64 digest of sampleMessages()[i] encoded
// with sequence id 42 and FlagResponse.
var goldenFrameSums = []uint64{
	0x1a0110bffcd72e02, // query
	0xa66a6c1f4017d6f2, // query
	0x0d48be9223285ec1, // query
	0x3f00f8e410cc2b92, // query-resp
	0x5148070297fb3831, // query-resp
	0x5b7b776a761b36d4, // exchange
	0x8840387646de9e13, // exchange-resp
	0x0046f2b4dddd95ac, // exchange-resp
	0xbbd2a9d661c5320c, // apply
	0x36705b652cfed4d8, // apply-resp
	0x9ebf959fc2b4a2ed, // get
	0xd646bc595ccc6c29, // get-resp
	0xadff4b29fb2a705d, // info
	0x96624c3ce70e0cbe, // info-resp
	0x0e5df2ba9b1016d2, // scan
	0xe1b9e8875ab3412b, // scan-resp
	0xc8f1c35927359f7b, // error
	0xb2c06012d453bab0, // query, read riding along
	0xef28348b76f5d104, // query, read riding along
	0x034af0c963651ce1, // query-resp, entry carried back
	0x7eee8174a9f2abcd, // info, apply riding along
	0x87ad23aba3ef1e48, // info-resp, apply answered
	0x1de7b0cf707cfca4, // observe, every ask
	0xada642e68989d889, // observe, no ask
	0x5c33eb678ed29cf2, // observe, no payload
	0x0dab96de33541bf8, // observe, links
	0xed9b9af735f551ab, // observe, health
	0xadd0e2a3d7dbf401, // observe, metrics
	0xadfb8261262e0f79, // observe, history
	0xae50c1dbc2d24669, // observe, repair
	0x4f58b17cf8482f0b, // observe, traces
	0x0eb48a4575bb7071, // observe-resp, every column
	0x46c7bbb89f962603, // observe-resp, no column
	0xbb0061e0aa0272c5, // observe-resp, no payload
	0x2d1c9c4b1ae96877, // observe-resp, links
	0x9dcdaed1e7811dcd, // observe-resp, health
	0x9c06c83ccce4af19, // observe-resp, metrics without stamps or exemplars
	0xb791322fdf259ecd, // observe-resp, history
	0x37c3df67fdf54c4b, // observe-resp, repair
	0x2e641421a6c6ee1c, // observe-resp, traces
	0x65c96cecc56dcbaf, // apply, three entries
	0xeac4ee334e0090ad, // observe-resp, health with data
	0xc2c1b52a7011081d, // observe-resp, metrics with data
	0x0820409a2da32fc4, // observe-resp, history with data
	0xcf3456147d83adef, // observe-resp, repair with data
	0x1e702e3107988f9c, // observe-resp, traces with data
	0x6a60698d66fc132a, // info, digested scan riding along, two digests held
	0x95132350fd63e534, // info, digested scan riding along, none held
	0x3e73f464c216d787, // info-resp, digested scan answered with the entries
	0x8e4a2e47b97e93f4, // info-resp, digested scan answered "same"
	0xfb3f4672a6f72e3c, // info, scan riding along, eight digests held
	0x87f538e99e05b66b, // info, scan of the whole index riding along
	0x76170e7d20b52d23, // info-resp, empty scan answered with digest 0
	0xc1f0a4b4760ecf29, // query-resp, the references of the level the walk goes on at
	0x2bed7288194cdbe7, // query-resp, a level wider than the answer's room
}

// TestBinaryFrameStream decodes several frames back to back off one
// reader, proving the codec leaves the stream positioned exactly at the
// next frame (no trailing-garbage slop between frames).
func TestBinaryFrameStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMessages()
	for i, m := range msgs {
		if err := WriteFrame(&buf, uint32(i), 0, m); err != nil {
			t.Fatalf("encode %v: %v", m.Kind, err)
		}
	}
	for i, m := range msgs {
		seq, _, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != uint32(i) || got.Kind != m.Kind {
			t.Fatalf("frame %d: seq=%d kind=%v", i, seq, got.Kind)
		}
	}
	if _, _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF after last frame, got %v", err)
	}
}

// TestBinaryCorruptFrames runs the corruption table: every malformed frame
// must surface ErrCorrupt (or clean EOF for pure truncation at a frame
// boundary) — never a panic, hang, or giant allocation.
func TestBinaryCorruptFrames(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, 0, &Message{Kind: KindQuery, From: 2,
			Query: &QueryReq{Key: bitpath.MustParse("0101"), Level: 1}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// framed frames body as kind, whatever the frame mutated.
	framed := func(kind Kind, body []byte) func([]byte) []byte {
		return func([]byte) []byte {
			f := observeFrame(body)
			f[3] = byte(kind)
			return f
		}
	}
	// A plain scan rider and its answer: the scan without the held bit.
	plainScan := append(appendVarint(nil, 2), riderScan)
	plainScan = appendPath(plainScan, bitpath.MustParse("011"))
	plainAnswer, err := appendMessageBody(nil, &Message{Kind: KindInfoResp, From: 2, InfoResp: &InfoResp{Addr: 2, Path: "01"}})
	if err != nil {
		t.Fatal(err)
	}
	plainAnswer[1] = flagPresent | riderScan // the byte behind the sender
	plainAnswer = appendEntries(plainAnswer, []store.Entry{{Key: "0110", Name: "f", Holder: 3, Version: 9}})
	// A metrics column in the layout with a leading schema varint: v1, without
	// incarnation stamps or exemplar lists, and v2, with both.
	v1Metrics := v1MetricsBody()
	v2Metrics := appendVarint(columnHead(AskMetrics), 2) // schema
	v2Metrics = appendVarint(v2Metrics, 1700000000123456789)
	v2Metrics = appendVarint(v2Metrics, 98765432100)
	v2Metrics = appendUvarint(v2Metrics, 0) // no stats
	v2Metrics = appendUvarint(v2Metrics, 0) // no hists
	// A history column in that layout: the dump's schema, then a point whose
	// snapshot leads with its own.
	v2History := appendVarint(columnHead(AskHistory), 2) // schema
	v2History = appendVarint(v2History, 2e9)             // IntervalNS
	v2History = appendUvarint(v2History, 1)              // one point
	v2History = appendVarint(v2History, 1700000000000000000)
	v2History = append(v2History, v2Metrics[len(columnHead(AskMetrics)):]...)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantEOF bool // truncation at the header boundary reads as clean EOF? no — only empty input
	}{
		{name: "bad magic byte 0", mutate: func(b []byte) []byte { b[0] = 'X'; return b }},
		{name: "bad magic byte 1", mutate: func(b []byte) []byte { b[1] = 'X'; return b }},
		{name: "future version", mutate: func(b []byte) []byte { b[2] = BinaryVersion + 1; return b }},
		{name: "unknown kind", mutate: func(b []byte) []byte { b[3] = 99; return b }},
		{name: "kind flip changes format", mutate: func(b []byte) []byte { b[3] = byte(KindObserveResp); return b }},
		{name: "oversize length", mutate: func(b []byte) []byte {
			b[9], b[10], b[11], b[12] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
		{name: "length beyond body", mutate: func(b []byte) []byte { b[12]++; return b }},
		{name: "truncated header", mutate: func(b []byte) []byte { return b[:HeaderSize-3] }},
		{name: "truncated payload", mutate: func(b []byte) []byte { return b[:len(b)-2] }},
		{name: "trailing garbage in payload", mutate: func(b []byte) []byte {
			b = append(b, 0xaa, 0xbb)
			n := len(b) - HeaderSize
			b[9], b[10], b[11], b[12] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
			return b
		}},
		{name: "payload bit flip mid-varint", mutate: func(b []byte) []byte {
			b[len(b)-1] ^= 0x80
			n := len(b) - HeaderSize
			_ = n
			return b[:HeaderSize] // empty payload for a kind that requires one
		}},
		{name: "plain scan rider", mutate: framed(KindInfo, plainScan)},
		{name: "plain scan answer", mutate: framed(KindInfoResp, plainAnswer)},
		{name: "v1 metrics column", mutate: framed(KindObserveResp, v1Metrics)},
		{name: "v2 metrics column with its schema", mutate: framed(KindObserveResp, v2Metrics)},
		{name: "v2 history column with its schema", mutate: framed(KindObserveResp, v2History)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good()...))
			if tc.name == "payload bit flip mid-varint" {
				b = b[:HeaderSize]
				b[9], b[10], b[11], b[12] = 0, 0, 0, 0
			}
			// Both header paths: parsed in place in a bufio.Reader's
			// buffer, and read into a scratch header from any other reader.
			for _, r := range []io.Reader{bytes.NewReader(b), bufio.NewReader(bytes.NewReader(b))} {
				_, _, m, err := ReadFrame(r)
				if err == nil {
					t.Fatalf("%T: decoded %+v from corrupt frame", r, m)
				}
				if tc.name == "truncated header" || tc.name == "truncated payload" ||
					tc.name == "length beyond body" {
					// Truncation mid-frame is an unexpected-EOF read
					// error, never io.EOF-as-clean-close.
					if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("%T: want an unexpected-EOF error, got %v", r, err)
					}
					continue
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%T: want ErrCorrupt, got %v", r, err)
				}
			}
		})
	}
}

// chunkReader hands out its chunks one Read at a time, then fails with err
// (io.EOF when nil).
type chunkReader struct {
	chunks [][]byte
	err    error
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestReadFrameStalledClaim: a header's claim costs nothing until its bytes
// arrive. A peer sends a header claiming MaxFrameSize and one body byte, then
// stalls; while ReadFrame waits for the rest, the process has allocated at
// most two chunks of maxPooledBuf, not the 16 MB claimed, and the stream's end
// is a torn frame.
func TestReadFrameStalledClaim(t *testing.T) {
	hdr := []byte{magic0, magic1, BinaryVersion, byte(KindScanResp), 0, 0, 0, 0, 1, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[9:], MaxFrameSize)
	pr, pw := io.Pipe()
	var before, stalled runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := ReadFrame(pr)
		done <- err
	}()
	// A pipe's Write returns once the reader has taken the bytes: after the
	// second, ReadFrame holds its body buffer and waits for the rest.
	if _, err := pw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&stalled)
	pw.Close()
	if err := <-done; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a stalled claim cut short = %v, want a torn frame", err)
	}
	if grew := stalled.TotalAlloc - before.TotalAlloc; grew > 2*maxPooledBuf {
		t.Errorf("a stalled %d-byte claim allocated %d bytes, want ≤ %d", MaxFrameSize, grew, 2*maxPooledBuf)
	} else {
		t.Logf("a stalled %d-byte claim allocated %d bytes", MaxFrameSize, grew)
	}
}

// TestRawFrameGivesItsBodyBack: the body a frame was read into goes back to
// bufPool once, whether it decodes, fails to decode — a server's worker then
// drops the connection — or is dropped undecoded: Decode and Release leave the
// frame empty, so a later Release gives nothing back twice.
func TestRawFrameGivesItsBodyBack(t *testing.T) {
	good, err := AppendFrame(nil, 1, 0, &Message{Kind: KindInfo, From: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]byte{}, good...), 0xff) // a byte of trailing garbage
	binary.BigEndian.PutUint32(bad[9:13], uint32(len(bad)-HeaderSize))
	for _, tc := range []struct {
		name    string
		frame   []byte
		release func(*RawFrame) error
		corrupt bool
	}{
		{"decoded", good, func(f *RawFrame) error { _, err := f.Decode(nil); return err }, false},
		{"corrupt body", bad, func(f *RawFrame) error { _, err := f.Decode(new(Room)); return err }, true},
		{"dropped", good, func(f *RawFrame) error { f.Release(); return nil }, false},
	} {
		f, err := ReadRawFrame(bytes.NewReader(tc.frame))
		if err != nil || f.body == nil || f.Seq != 1 {
			t.Fatalf("%s: ReadRawFrame = %+v, %v", tc.name, f, err)
		}
		if err := tc.release(&f); errors.Is(err, ErrCorrupt) != tc.corrupt {
			t.Errorf("%s: err = %v, corrupt %v", tc.name, err, tc.corrupt)
		}
		if f.body != nil {
			t.Errorf("%s: the frame still holds its body", tc.name)
		}
		f.Release()
	}
}

// TestReadFrameHeaderBoundaries: where the stream breaks relative to the
// 13-byte header decides between a decoded frame, a clean close (io.EOF,
// verbatim) and a torn frame (an error wrapping io.ErrUnexpectedEOF or the
// reader's own) — the same through a bufio.Reader and through any other
// reader.
func TestReadFrameHeaderBoundaries(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, FlagResponse, &Message{Kind: KindGet, From: 2,
		Get: &GetReq{Key: bitpath.MustParse("0110"), Name: "f"}}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	reset := errors.New("connection reset")
	perByte := make([][]byte, len(frame))
	for i := range frame {
		perByte[i] = frame[i : i+1]
	}
	cases := []struct {
		name   string
		chunks [][]byte
		err    error
		want   error // nil: the frame decodes; io.EOF: clean close, verbatim
	}{
		{name: "whole frame in one read", chunks: [][]byte{frame}},
		{name: "header split across two reads", chunks: [][]byte{frame[:5], frame[5:]}},
		{name: "header and payload in separate reads", chunks: [][]byte{frame[:HeaderSize], frame[HeaderSize:]}},
		{name: "one byte per read", chunks: perByte},
		{name: "EOF before any byte", want: io.EOF},
		{name: "EOF after one header byte", chunks: [][]byte{frame[:1]}, want: io.ErrUnexpectedEOF},
		{name: "EOF mid-header", chunks: [][]byte{frame[:5], frame[5:9]}, want: io.ErrUnexpectedEOF},
		{name: "EOF between header and payload", chunks: [][]byte{frame[:HeaderSize]}, want: io.ErrUnexpectedEOF},
		{name: "EOF mid-payload", chunks: [][]byte{frame[:HeaderSize+2]}, want: io.ErrUnexpectedEOF},
		{name: "read error mid-header", chunks: [][]byte{frame[:5]}, err: reset, want: reset},
		{name: "read error before any byte", err: reset, want: reset},
	}
	for _, tc := range cases {
		for _, buffered := range []bool{true, false} {
			var r io.Reader = &chunkReader{chunks: append([][]byte(nil), tc.chunks...), err: tc.err}
			if buffered {
				r = bufio.NewReader(r)
			}
			seq, flags, m, err := ReadFrame(r)
			switch {
			case tc.want == nil:
				if err != nil || seq != 7 || flags != FlagResponse || m.Get == nil || m.Get.Key != "0110" || m.Get.Name != "f" {
					t.Errorf("%s (buffered=%v): seq=%d flags=%d msg=%+v err=%v", tc.name, buffered, seq, flags, m, err)
				}
				if _, _, _, err := ReadFrame(r); err != io.EOF {
					t.Errorf("%s (buffered=%v): after the frame: %v, want clean io.EOF", tc.name, buffered, err)
				}
			case tc.want == io.EOF:
				if err != io.EOF {
					t.Errorf("%s (buffered=%v): err = %v, want io.EOF verbatim", tc.name, buffered, err)
				}
			default:
				if err == io.EOF || !errors.Is(err, tc.want) || m != nil {
					t.Errorf("%s (buffered=%v): msg=%v err=%v, want an error wrapping %v", tc.name, buffered, m, err, tc.want)
				}
			}
		}
	}
}

// countingReader counts the Reads that reach the stream under a bufio.Reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadFrameBufferBoundaries: where a frame falls relative to the bufio
// buffer it is read through changes nothing. For each of frameReadSizes — the
// size a connection's ends read through among them — a body exactly the
// buffer's size, one byte over (bufio hands such a read straight to the
// stream, past its buffer), a frame whose header straddles two fills and two
// small frames behind each other decode as they do from a plain reader, with
// the same bytes consumed; a stream that ends between header and body is a
// torn frame; and two frames that fit one buffer together cost the stream one
// Read, as one did.
func TestReadFrameBufferBoundaries(t *testing.T) {
	// frameOf returns a Get frame whose body is exactly body bytes long.
	frameOf := func(seq uint32, body int) []byte {
		t.Helper()
		for pad := 0; pad <= body; pad++ {
			b, err := AppendFrame(nil, seq, 0, &Message{Kind: KindGet, From: 2,
				Get: &GetReq{Key: bitpath.MustParse("0110"), Name: strings.Repeat("n", pad)}})
			if err != nil {
				t.Fatal(err)
			}
			if len(b)-HeaderSize == body {
				return b
			}
		}
		t.Fatalf("no Get frame has a %d-byte body", body)
		return nil
	}
	small := frameOf(1, 10)
	for _, size := range frameReadSizes {
		// A first frame that leaves room for 5 of the next header's 13 bytes
		// in the fill that brings its own last byte.
		lead := size - 5
		for lead < HeaderSize+10 {
			lead += size
		}
		for _, tc := range []struct {
			name   string
			stream []byte
			frames int
		}{
			{"body exactly the buffer", append(frameOf(1, size), small...), 2},
			{"body one byte over the buffer", append(frameOf(1, size+1), small...), 2},
			{"header straddling two fills", append(frameOf(1, lead-HeaderSize), frameOf(2, 40)...), 2},
			{"two small frames", append(append([]byte{}, small...), frameOf(2, 12)...), 2},
			{"EOF between header and body", append(append([]byte{}, small...), frameOf(2, 40)[:HeaderSize]...), 1},
		} {
			if got := readersAgree(t, tc.stream); got != tc.frames {
				t.Errorf("%d-byte buffer, %s: %d frames read, want %d", size, tc.name, got, tc.frames)
			}
			if tc.frames == 1 {
				br := bufio.NewReaderSize(bytes.NewReader(tc.stream), size)
				ReadFrame(br)
				if _, _, m, err := ReadFrame(br); err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) || m != nil {
					t.Errorf("%d-byte buffer, %s: msg=%v err=%v, want an error wrapping io.ErrUnexpectedEOF", size, tc.name, m, err)
				}
			}
		}
		if 2*len(small) > size {
			continue
		}
		src := &countingReader{r: bytes.NewReader(append(append([]byte{}, small...), small...))}
		br := bufio.NewReaderSize(src, size)
		for i := 0; i < 2; i++ {
			if _, _, _, err := ReadFrame(br); err != nil {
				t.Fatal(err)
			}
		}
		if src.reads != 1 {
			t.Errorf("%d-byte buffer: two %d-byte frames cost the stream %d reads, want 1", size, len(small), src.reads)
		}
	}
}

// TestAllocBudgetReadFrame: decoding a frame from a bufio.Reader allocates
// what it returns — the Message with its payload struct, one object, which also
// holds the one (Key, Name) pair a read, an answer's entry, a one-entry apply,
// an info rider or a get carries while it fits 64 bytes, and each other
// non-empty path or string — and nothing else: no header, no scratch path, no
// decoder state, no envelope beside the payload.
func TestAllocBudgetReadFrame(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	key := bitpath.MustParse("0110100101101001")
	long := strings.Repeat("n", 64-len(key)+1) // with key, one byte past the room
	past := store.Entry{Key: key, Name: long, Holder: 5, Version: 8}
	for _, tc := range []struct {
		msg    *Message
		budget float64
	}{
		// Message with QueryReq + Key.
		{&Message{Kind: KindQuery, From: 3, Query: &QueryReq{Key: key, Level: 2}}, 2},
		// Message with QueryResp + Path.
		{&Message{Kind: KindQueryResp, From: 3, QueryResp: &QueryResp{Found: true, Peer: 9, Path: key}}, 2},
		// A visit going on: the references ride in the answer's room.
		{&Message{Kind: KindQueryResp, From: 3, QueryResp: &QueryResp{Path: key[:5], Refs: RefSet{Addrs: []addr.Addr{4, 5, 6}}}}, 2},
		// Message with GetReq, Key and Name in its room.
		{&Message{Kind: KindGet, From: 3, Get: &GetReq{Key: key, Name: "file-0042"}}, 1},
		{&Message{Kind: KindGetResp, From: 3, GetResp: &GetResp{Entry: store.Entry{Key: key, Name: "file-0042", Holder: 5, Version: 8}, Found: true}}, 1},
		// The routed read costs each hop what the plain pair costs: Message with
		// QueryReq, its GetReq, the read's Key and Name and the room the query is
		// answered in, the routed key cut from the read's.
		{&Message{Kind: KindQuery, From: 3, Query: &QueryReq{Key: key[9:], Level: 9,
			Read: &GetReq{Key: key, Name: "file-0042"}}}, 1},
		// A trace context rides in the same object.
		{&Message{Kind: KindQuery, From: 3, Query: &QueryReq{Key: key[9:], Level: 9,
			Ctx:  &trace.SpanContext{TraceID: 7, Parent: 8, Sampled: true},
			Read: &GetReq{Key: key, Name: "file-0042"}}}, 1},
		// A routed key that is not the read key's tail is its own string: the
		// codec admits the pair, badRequest refuses it.
		{&Message{Kind: KindQuery, From: 3, Query: &QueryReq{Key: key[:7], Level: 9,
			Read: &GetReq{Key: key, Name: "file-0042"}}}, 2},
		// Message with QueryResp and the entry's Key and Name, the path cut from
		// the entry's key.
		{&Message{Kind: KindQueryResp, From: 3, QueryResp: &QueryResp{Found: true, Peer: 9, Path: key[:5],
			Entry: store.Entry{Key: key, Name: "file-0042", Holder: 5, Version: 8}, Has: true}}, 1},
		// A path that does not start the entry's key is its own string.
		{&Message{Kind: KindQueryResp, From: 3, QueryResp: &QueryResp{Found: true, Peer: 9, Path: key[1:6],
			Entry: store.Entry{Key: key, Name: "file-0042", Holder: 5, Version: 8}, Has: true}}, 2},
		// Message with ApplyReq and room for its one entry and the entry's Key
		// and Name; its answer is the one object.
		{&Message{Kind: KindApply, From: 3, Apply: &ApplyReq{Entries: []store.Entry{{Key: key, Name: "file-0042", Holder: 5, Version: 8}}}}, 1},
		{&Message{Kind: KindApplyResp, From: 3, ApplyResp: &ApplyResp{Changed: true}}, 1},
		// A list: Message with ApplyReq + the entries' slice and one arena string.
		{&Message{Kind: KindApply, From: 3, Apply: &ApplyReq{Entries: []store.Entry{{Key: key, Name: "file-0042", Holder: 5, Version: 8},
			{Key: key, Name: "file-0043", Holder: 5, Version: 8}, {Key: key[:3], Name: "x", Holder: 5, Version: 8}}}}, 3},
		// A BFS visit: Message with InfoReq, its ApplyReq and the entry's Key and
		// Name, or with InfoReq and its ScanReq, whose prefix of at most 8 bits is
		// already in shortPaths and costs nothing; a longer one is its own string.
		{&Message{Kind: KindInfo, From: 3, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{{Key: key, Name: "file-0042", Holder: 5, Version: 8}}}}}, 1},
		{&Message{Kind: KindInfo, From: 3, Info: &InfoReq{Scan: &ScanReq{Prefix: key[:5]}}}, 1},
		{&Message{Kind: KindInfo, From: 3, Info: &InfoReq{Scan: &ScanReq{Prefix: key[:9]}}}, 2},
		// Its answers: Message with InfoResp, room for either answer and room for
		// the links, one object, the short path free; a scan's entries add their
		// slice and one arena string.
		{&Message{Kind: KindInfoResp, From: 3, InfoResp: &InfoResp{Addr: 3, Path: key[:4],
			Refs: []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 4}}}, Applied: &ApplyResp{Changed: true}}}, 1},
		{&Message{Kind: KindInfoResp, From: 3, InfoResp: &InfoResp{Addr: 3, Path: key[:4],
			Refs: []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 4}}}, Scanned: &ScanResp{Entries: []store.Entry{
				{Key: key, Name: "file-0042", Holder: 5, Version: 8}, {Key: key, Name: "file-0043", Holder: 5, Version: 8}}}}}, 3},
		// A plain answer is the same one object, and so is an exchange snapshot.
		{&Message{Kind: KindInfoResp, From: 3, InfoResp: &InfoResp{Addr: 3, Path: key[:8],
			Refs: []RefSet{{Addrs: []addr.Addr{1}}, {}, {Addrs: []addr.Addr{2, 4}}}, Buddies: RefSet{Addrs: []addr.Addr{6}}, Entries: 2}}, 1},
		{&Message{Kind: KindExchange, From: 3, Exchange: &ExchangeReq{Path: key[:3],
			Refs: []RefSet{{Addrs: []addr.Addr{1}}, {Addrs: []addr.Addr{2, 4}}, {}}, Depth: 1}}, 1},
		// A pair one byte past the room is its own string, as every pair was.
		{&Message{Kind: KindQuery, From: 3, Query: &QueryReq{Key: key[9:], Level: 9, Read: &GetReq{Key: key, Name: long}}}, 2},
		{&Message{Kind: KindQueryResp, From: 3, QueryResp: &QueryResp{Found: true, Peer: 9, Path: key[:5], Entry: past, Has: true}}, 2},
		{&Message{Kind: KindApply, From: 3, Apply: &ApplyReq{Entries: []store.Entry{past}}}, 2},
		{&Message{Kind: KindInfo, From: 3, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{past}}}}, 2},
		{&Message{Kind: KindGet, From: 3, Get: &GetReq{Key: key, Name: long}}, 2},
	} {
		frame, err := AppendFrame(nil, 1, 0, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(frame)
		br := bufio.NewReader(src)
		if _, _, m, err := ReadFrame(br); err != nil || !reflect.DeepEqual(wireContent(m), tc.msg) {
			t.Fatalf("ReadFrame = %+v, %v; sent %+v", m, err, tc.msg)
		}
		got := testing.AllocsPerRun(200, func() {
			src.Reset(frame)
			br.Reset(src)
			if _, _, m, err := ReadFrame(br); err != nil || m.Kind != tc.msg.Kind {
				t.Fatalf("decode: %v %v", m, err)
			}
		})
		if got > tc.budget {
			t.Errorf("ReadFrame(%v) = %.1f allocs, want ≤ %.0f (the structs and paths it returns)", tc.msg.Kind, got, tc.budget)
		}
	}
}

// TestDecodedStringsOutliveTheFrame: a key and name decoded into their
// message's object are that object's for good, never a view of the
// bufio.Reader's buffer or of the pooled buffer the next frame's payload is
// read into. Pairs one byte short of the room, filling it, one byte past it,
// with an empty name and with an empty key — in every message that carries a
// pair — are decoded through one reader and kept, 1 000 further frames with
// other pairs are decoded through it, and what was kept still reads as sent.
func TestDecodedStringsOutliveTheFrame(t *testing.T) {
	room := len(pairRoom{})
	key := bitpath.MustParse("0110100101101001")
	carriers := func(k bitpath.Path, name string) []*Message {
		e := store.Entry{Key: k, Name: name, Holder: 4, Version: 9}
		return []*Message{
			{Kind: KindQuery, From: 1, Query: &QueryReq{Key: k, Read: &GetReq{Key: k, Name: name}}},
			{Kind: KindQueryResp, From: 1, QueryResp: &QueryResp{Found: true, Peer: 2, Path: k, Entry: e, Has: true}},
			{Kind: KindApply, From: 1, Apply: &ApplyReq{Entries: []store.Entry{e}}},
			{Kind: KindInfo, From: 1, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{e}}}},
			{Kind: KindGet, From: 1, Get: &GetReq{Key: k, Name: name}},
			{Kind: KindGetResp, From: 1, GetResp: &GetResp{Entry: e, Found: true}},
		}
	}
	var kept []*Message
	for _, n := range []int{room - 1, room, room + 1} {
		kept = append(kept, carriers(key, strings.Repeat("n", n-len(key)))...)
	}
	kept = append(kept, carriers(key, "")...)
	kept = append(kept, carriers("", "a-name")...)
	var stream []byte
	var err error
	for _, m := range kept {
		if stream, err = AppendFrame(stream, 1, 0, m); err != nil {
			t.Fatal(err)
		}
	}
	const further = 1000
	for i := 0; i < further; i++ {
		k := bitpath.Path(strings.Repeat("10", 40)[:i%70])
		m := carriers(k, strings.Repeat(string(rune('a'+i%26)), i%50))[i%6]
		if stream, err = AppendFrame(stream, 1, 0, m); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReaderSize(bytes.NewReader(stream), 256)
	decoded := make([]*Message, len(kept))
	for i := range decoded {
		if _, _, decoded[i], err = ReadFrame(br); err != nil || !reflect.DeepEqual(wireContent(decoded[i]), kept[i]) {
			t.Fatalf("frame %d = %+v, %v; sent %+v", i, decoded[i], err, kept[i])
		}
	}
	for i := 0; i < further; i++ {
		if _, _, _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range decoded {
		if !reflect.DeepEqual(wireContent(m), kept[i]) {
			t.Errorf("frame %d changed under %d further frames: %+v, sent %+v", i, further, m, kept[i])
		}
	}
}

// TestBinaryCountOverflow feeds a frame whose reference count claims far more
// elements than the payload holds: the decoder must reject it as corrupt
// without attempting the allocation.
func TestBinaryCountOverflow(t *testing.T) {
	payload := []byte{2, 1} // From=1, payload present
	payload = appendBool(payload[:1], true)
	// Hand-build: From varint(3)=6, present=1, Found=1, Peer varint, path,
	// then a monstrous reference count.
	b := []byte{}
	b = appendVarint(b, 3)      // From
	b = appendBool(b, true)     // payload present
	b = appendBool(b, true)     // Found
	b = appendVarint(b, 1)      // Peer
	b = appendPath(b, "")       // Path
	b = appendUvarint(b, 1<<40) // Refs count: absurd
	frame := []byte{magic0, magic1, BinaryVersion, byte(KindQueryResp), 0, 0, 0, 0, 1}
	frame = append(frame, byte(len(b)>>24), byte(len(b)>>16), byte(len(b)>>8), byte(len(b)))
	frame = append(frame, b...)
	_, _, _, err := ReadFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for absurd count, got %v", err)
	}
}

// TestBinaryQueryFlags: the byte that opens a query or its answer holds two
// flags. The read trailer without a payload, and any bit beyond the two, is
// corrupt; a trailer the flags announce and the payload lacks is truncated.
func TestBinaryQueryFlags(t *testing.T) {
	for _, m := range []*Message{
		{Kind: KindQuery, From: 1, Query: &QueryReq{Key: "01"}},
		{Kind: KindQueryResp, From: 1, QueryResp: &QueryResp{Found: true, Peer: 1, Path: "01"}},
	} {
		plain, err := appendMessageBody(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		announced := append([]byte{}, plain...)
		announced[1] |= flagTrailer // the byte behind the sender
		for _, body := range [][]byte{{2, flagTrailer}, {2, 4}, {2, 0xff}, announced} {
			if got, err := decodeMessageBody(m.Kind, body, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%v body %x decoded to %+v, %v; want ErrCorrupt", m.Kind, body, got, err)
			}
		}
		if _, err := decodeMessageBody(m.Kind, plain, nil); err != nil {
			t.Errorf("%v body %x: %v", m.Kind, plain, err)
		}
	}
}

// TestBinaryInfoRider: an info request's rider byte names exactly one
// operation and the operation must follow it; an info answer's flags byte
// holds the presence bit and the bits of at most one rider, and the answer
// it names must close the payload. Anything else — a flag without its
// payload, both riders at once, the held bit without the scan, an unknown
// bit, trailing bytes — is corrupt, and the encoder
// refuses to produce what the decoder would refuse, an apply rider of other
// than one entry among it.
func TestBinaryInfoRider(t *testing.T) {
	entry := store.Entry{Key: "0110", Name: "f", Holder: 3, Version: 9}
	body := func(m *Message) []byte {
		t.Helper()
		b, err := appendMessageBody(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := body(&Message{Kind: KindInfo, From: 2})
	apply := body(&Message{Kind: KindInfo, From: 2, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{entry}}}})
	scan := body(&Message{Kind: KindInfo, From: 2, Info: &InfoReq{Scan: &ScanReq{Prefix: "01"}}})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	links := &InfoResp{Addr: 2, Path: "01", Refs: []RefSet{{Addrs: []addr.Addr{1}}}}
	answer := func(i InfoResp) []byte { return body(&Message{Kind: KindInfoResp, From: 2, InfoResp: &i}) }
	applied, scanned := *links, *links
	applied.Applied = &ApplyResp{Changed: true}
	scanned.Scanned = &ScanResp{Entries: []store.Entry{entry}}
	withFlags := func(b []byte, f byte) []byte { b = bytes.Clone(b); b[1] = f; return b } // the byte behind the sender

	for _, tc := range []struct {
		kind Kind
		body []byte
		ok   bool
	}{
		{KindInfo, plain, true},
		{KindInfo, apply, true},
		{KindInfo, scan, true},
		{KindInfo, cat(plain, []byte{0}), false},                                // a rider byte naming nothing
		{KindInfo, cat(plain, []byte{flagPresent}), false},                      // not a rider bit
		{KindInfo, cat(plain, []byte{riderApply}), false},                       // the apply without its entry
		{KindInfo, cat(plain, []byte{riderScan | riderHeld}), false},            // the scan without its prefix
		{KindInfo, cat(plain, []byte{riderApply | riderScan}, scan[2:]), false}, // both riders
		{KindInfo, cat(plain, []byte{riderHeld}, scan[2:]), false},              // the held bit without the scan
		{KindInfo, cat(plain, []byte{riderScan | 1<<5}, scan[2:]), false},       // an unknown bit
		{KindInfo, cat(apply, []byte{0}), false},                                // trailing bytes
		{KindInfo, cat(scan, []byte{0}), false},
		{KindInfoResp, answer(*links), true},
		{KindInfoResp, answer(applied), true},
		{KindInfoResp, answer(scanned), true},
		{KindInfoResp, withFlags(answer(applied), riderApply), false},                       // an answer without presence
		{KindInfoResp, withFlags(answer(applied), flagPresent|riderApply|riderScan), false}, // both answers
		{KindInfoResp, withFlags(answer(*links), flagPresent|riderHeld), false},             // the held bit without the scan
		{KindInfoResp, withFlags(answer(*links), flagPresent|1<<5), false},                  // an unknown bit
		{KindInfoResp, withFlags(answer(*links), flagPresent|riderApply), false},            // Changed missing
		{KindInfoResp, withFlags(answer(*links), flagPresent|riderScan|riderHeld), false},   // digest and entries missing
		{KindInfoResp, cat(answer(applied)[:len(answer(applied))-1], []byte{2}), false},     // Changed not a bool
		{KindInfoResp, cat(answer(applied), []byte{0}), false},                              // trailing bytes
		{KindInfoResp, cat(answer(scanned), []byte{0}), false},
	} {
		got, err := decodeMessageBody(tc.kind, tc.body, nil)
		if tc.ok && err != nil {
			t.Errorf("%v body %x: %v", tc.kind, tc.body, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v body %x decoded to %+v, %v; want ErrCorrupt", tc.kind, tc.body, got, err)
		}
	}

	for _, m := range []*Message{
		{Kind: KindInfo, Info: &InfoReq{}},
		{Kind: KindInfo, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{entry}}, Scan: &ScanReq{Prefix: "01"}}},
		{Kind: KindInfo, Info: &InfoReq{Apply: &ApplyReq{}}},
		{Kind: KindInfo, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{entry, entry}}}},
		{Kind: KindInfoResp, InfoResp: &InfoResp{Applied: &ApplyResp{}, Scanned: &ScanResp{}}},
	} {
		if _, err := AppendFrame(nil, 1, 0, m); err == nil {
			t.Errorf("encoder accepted %+v", m)
		}
	}
}

// TestBinaryDigestedScanStrict: a scan rider names at most MaxHeld held
// digests, each 8 bytes, and its answer carries the range digest with the
// entries, or alone when it says "same": a ninth digest, a short one, a
// "same" answer with entries behind it or with the scan's bit beside it, and
// a digest missing are corrupt. The encoder refuses what the decoder would,
// and held digests or a range digest on the standalone scan pair, which
// carries none.
func TestBinaryDigestedScanStrict(t *testing.T) {
	entry := store.Entry{Key: "0110", Name: "f", Holder: 3, Version: 9}
	body := func(m *Message) []byte {
		t.Helper()
		b, err := appendMessageBody(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	held := func(n int) []uint64 {
		h := make([]uint64, n)
		for i := range h {
			h[i] = uint64(i+1) * 0x0101010101010101
		}
		return h
	}
	scan := func(h []uint64) []byte {
		return body(&Message{Kind: KindInfo, From: 2, Info: &InfoReq{Scan: &ScanReq{Prefix: "01", Held: h}}})
	}
	full := scan(held(MaxHeld))
	// The frame a ninth digest would make: the count byte (behind the
	// sender, the rider byte and the two-byte path) says 9, and 8 more bytes.
	ninth := bytes.Clone(full)
	ninth[4] = MaxHeld + 1
	ninth = cat(ninth, appendU64(nil, 7))
	links := InfoResp{Addr: 2, Path: "01", Refs: []RefSet{{Addrs: []addr.Addr{1}}}}
	answer := func(s ScanResp) []byte {
		i := links
		i.Scanned = &s
		return body(&Message{Kind: KindInfoResp, From: 2, InfoResp: &i})
	}
	digested := answer(ScanResp{Entries: []store.Entry{entry}, Digest: 0xabcdef})
	same := answer(ScanResp{Digest: 0xabcdef, Same: true})
	undigested := cat(body(&Message{Kind: KindInfoResp, From: 2, InfoResp: &links}), appendEntries(nil, []store.Entry{entry}))
	withFlags := func(b []byte, f byte) []byte { b = bytes.Clone(b); b[1] = f; return b }

	for _, tc := range []struct {
		name string
		kind Kind
		body []byte
		ok   bool
	}{
		{"holding none", KindInfo, scan(nil), true},
		{"holding eight", KindInfo, full, true},
		{"holding nine", KindInfo, ninth, false},
		{"a digest cut short", KindInfo, full[:len(full)-1], false},
		{"trailing bytes", KindInfo, cat(full, []byte{0}), false},
		{"entries and digest", KindInfoResp, digested, true},
		{"same", KindInfoResp, same, true},
		{"same with entries behind it", KindInfoResp, cat(same, appendEntries(nil, []store.Entry{entry})), false},
		{"same beside the scan's bit", KindInfoResp, withFlags(same, flagPresent|riderSame|riderScan), false},
		{"same beside the held bit", KindInfoResp, withFlags(same, flagPresent|riderSame|riderHeld), false},
		{"same without its digest", KindInfoResp, same[:len(same)-8], false},
		{"entries without their digest", KindInfoResp, withFlags(undigested, flagPresent|riderScan|riderHeld), false},
	} {
		got, err := decodeMessageBody(tc.kind, tc.body, nil)
		if tc.ok && err != nil {
			t.Errorf("%s: body %x: %v", tc.name, tc.body, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: body %x decoded to %+v, %v; want ErrCorrupt", tc.name, tc.body, got, err)
		}
	}

	for _, m := range []*Message{
		{Kind: KindInfo, Info: &InfoReq{Scan: &ScanReq{Prefix: "01", Held: held(MaxHeld + 1)}}},
		{Kind: KindInfoResp, InfoResp: &InfoResp{Scanned: &ScanResp{Entries: []store.Entry{entry}, Same: true}}},
		{Kind: KindScan, Scan: &ScanReq{Prefix: "01", Held: held(1)}},
		{Kind: KindScanResp, ScanResp: &ScanResp{Digest: 5}},
		{Kind: KindScanResp, ScanResp: &ScanResp{Same: true}},
	} {
		if _, err := AppendFrame(nil, 1, 0, m); err == nil {
			t.Errorf("encoder accepted %+v", m)
		}
	}
}

// TestBinaryObserveStrict: an observe request's mask names known asks, each
// modifier with the column it modifies, and the three parameters follow it;
// an answer's mask names columns only, each followed by its body. Anything else is corrupt, and the encoder refuses to produce a request
// the decoder would refuse.
func TestBinaryObserveStrict(t *testing.T) {
	head := func(mask uint64) []byte {
		b := appendVarint(nil, 2) // From
		b = appendBool(b, true)   // payload present
		return appendUvarint(b, mask)
	}
	req := func(asks uint64, params ...int64) []byte {
		b := head(asks)
		for _, p := range params {
			b = appendVarint(b, p)
		}
		return b
	}
	answer, err := appendMessageBody(nil, &Message{Kind: KindObserveResp, From: 2,
		ObserveResp: &ObserveResp{Health: &HealthColumn{Digest: health.Digest{Addr: 2, Path: "01"}, Rounds: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	digest := answer[len(head(uint64(AskHealth))):]
	resp := func(mask uint64, tail ...byte) []byte {
		return append(append(head(mask), digest...), tail...)
	}
	for _, tc := range []struct {
		kind Kind
		body []byte
		ok   bool
	}{
		{KindObserve, req(uint64(AskLinks|AskHealth|AskLiveness|AskRepair|AskRepairNow), 0, 0, 0), true},
		{KindObserve, req(uint64(AskHistory), 5, 6, 0), true},
		{KindObserve, req(uint64(AskTraces), 0, 0, 3), true},
		{KindObserve, req(1<<8, 0, 0, 0), false},                        // an ask no build knows
		{KindObserve, req(uint64(AskLiveness), 0, 0, 0), false},         // liveness without health
		{KindObserve, req(uint64(AskRepairNow), 0, 0, 0), false},        // repair now without repair
		{KindObserve, req(uint64(AskHistory), 5, 6), false},             // the trace limit missing
		{KindObserve, req(uint64(AskTraces), 0, 0, 3, 0), false},        // trailing bytes
		{KindObserveResp, resp(uint64(AskHealth)), true},                // what the encoder wrote
		{KindObserveResp, resp(uint64(AskHealth), 0), false},            // trailing bytes
		{KindObserveResp, resp(uint64(AskHealth | AskLiveness)), false}, // a modifier is no column
		{KindObserveResp, resp(uint64(AskHealth) | 1<<8), false},        // a column no build knows
		{KindObserveResp, resp(uint64(AskHealth | AskRepair)), false},   // a column the body lacks
	} {
		got, err := decodeMessageBody(tc.kind, tc.body, nil)
		if tc.ok && err != nil {
			t.Errorf("%v body %x: %v", tc.kind, tc.body, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v body %x decoded to %+v, %v; want ErrCorrupt", tc.kind, tc.body, got, err)
		}
	}
	for _, asks := range []Ask{AskLiveness, AskRepairNow, AskLinks | AskLiveness | AskRepairNow} {
		if _, err := AppendFrame(nil, 1, 0, &Message{Kind: KindObserve, Observe: &ObserveReq{Asks: asks}}); err == nil {
			t.Errorf("encoder accepted asks %#x", asks)
		}
	}
}

// TestBinaryApplyList: one entry follows the presence byte bare, as it always
// did, so a one-entry apply is the frame it was; a list sets flagList and holds
// two entries or more. A pre-change decoder reads the list's presence byte as a
// bool and refuses it. A list of fewer than two entries, the list bit without
// presence, an unknown bit and trailing bytes are corrupt, and the encoder
// refuses an apply of no entry.
func TestBinaryApplyList(t *testing.T) {
	e := store.Entry{Key: "0110", Name: "f", Holder: 3, Version: 9}
	body := func(es ...store.Entry) []byte {
		t.Helper()
		b, err := appendMessageBody(nil, &Message{Kind: KindApply, From: 2, Apply: &ApplyReq{Entries: es}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	list := func(es ...store.Entry) []byte {
		return appendEntries(append(appendVarint(nil, 2), flagPresent|flagList), es)
	}
	one, three := body(e), body(e, e, e)
	if want := appendEntry(appendBool(appendVarint(nil, 2), true), e); !bytes.Equal(one, want) {
		t.Errorf("one-entry apply = %x, want the bool-and-entry body %x", one, want)
	}
	if d := (&bdec{b: three[1:]}); d.bool() || !errors.Is(d.err, ErrCorrupt) {
		t.Errorf("a list's presence byte %#x reads as a bool: err = %v", three[1], d.err)
	}
	withFlags := func(b []byte, f byte) []byte { b = bytes.Clone(b); b[1] = f; return b }
	for _, tc := range []struct {
		body []byte
		ok   bool
	}{
		{one, true},
		{three, true},
		{list(e, e), true},
		{list(), false},
		{list(e), false},
		{withFlags(three, flagList), false},
		{withFlags(one, flagPresent|1<<2), false},
		{append(bytes.Clone(one), 0), false},
		{append(bytes.Clone(three), 0), false},
	} {
		got, err := decodeMessageBody(KindApply, tc.body, nil)
		if tc.ok && (err != nil || len(got.Apply.Entries) == 0) {
			t.Errorf("body %x: %+v, %v", tc.body, got, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("body %x decoded to %+v, %v; want ErrCorrupt", tc.body, got, err)
		}
	}
	if _, err := AppendFrame(nil, 1, 0, &Message{Kind: KindApply, Apply: &ApplyReq{}}); err == nil {
		t.Error("encoder accepted an apply of no entry")
	}
}

// columnHead opens the body of an observe answer that carries the one column
// col: the sender, the presence byte and the column mask.
func columnHead(col Ask) []byte {
	b := appendVarint(nil, 3) // From
	b = appendBool(b, true)   // payload present
	return appendUvarint(b, uint64(col))
}

// observeFrame frames body as a KindObserveResp.
func observeFrame(body []byte) []byte {
	f := []byte{magic0, magic1, BinaryVersion, byte(KindObserveResp), 0, 0, 0, 0, 1}
	f = append(f, byte(len(body)>>24), byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	return append(f, body...)
}

// TestBinaryMetricsCorrupt runs the corruption table for the metrics
// column: absurd stat/histogram/pair counts must be refused before any
// allocation, and a histogram bucket index beyond uint16 is corrupt (it
// could not have come from a QHist, whose bucket space is under 1000).
func TestBinaryMetricsCorrupt(t *testing.T) {
	frame := observeFrame
	prefix := func() []byte {
		b := appendVarint(columnHead(AskMetrics), 1) // StartEpochNS
		return appendVarint(b, 1)                    // UptimeNS
	}
	cases := []struct {
		name string
		body func() []byte
	}{
		{"absurd stat count", func() []byte {
			return appendUvarint(prefix(), 1<<40)
		}},
		{"absurd hist count", func() []byte {
			b := appendUvarint(prefix(), 0) // no stats
			return appendUvarint(b, 1<<40)
		}},
		{"absurd pair count", func() []byte {
			b := appendUvarint(prefix(), 0) // no stats
			b = appendUvarint(b, 1)         // one hist
			b = appendString(b, "h")
			b = append(b, 4)       // SubBits
			b = appendVarint(b, 1) // Count
			b = appendVarint(b, 1) // Sum
			return appendUvarint(b, 1<<40)
		}},
		{"bucket index beyond uint16", func() []byte {
			b := appendUvarint(prefix(), 0) // no stats
			b = appendUvarint(b, 1)         // one hist
			b = appendString(b, "h")
			b = append(b, 4)            // SubBits
			b = appendVarint(b, 1)      // Count
			b = appendVarint(b, 1)      // Sum
			b = appendUvarint(b, 1)     // one pair
			b = appendUvarint(b, 70000) // idx > 0xffff
			return appendVarint(b, 1)
		}},
		{"truncated after subbits", func() []byte {
			b := appendUvarint(prefix(), 0) // no stats
			b = appendUvarint(b, 1)         // one hist
			b = appendString(b, "h")
			return append(b, 4, 0, 0) // SubBits + Count + Sum, then missing pair count
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, m, err := ReadFrame(bytes.NewReader(frame(tc.body())))
			if err == nil {
				t.Fatalf("decoded %+v from corrupt metrics frame", m)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
	// The encoder refuses a structurally-broken snapshot rather than
	// emitting a frame no decoder can parse.
	bad := &Message{Kind: KindObserveResp, From: 1, ObserveResp: &ObserveResp{
		Metrics: &telemetry.MetricsSnapshot{Hists: []telemetry.QHistSnapshot{
			{Name: "h", Idx: []uint16{1, 2}, N: []int64{5}}}}}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, 0, bad); err == nil {
		t.Fatal("encoder accepted mismatched Idx/N lengths")
	}
}

// TestBinaryHistoryCorrupt runs the corruption table for the history
// column: absurd point/exemplar counts are refused before allocation,
// exemplar bucket indexes beyond uint16 are corrupt, and the encoder
// refuses snapshots with mismatched exemplar arrays.
func TestBinaryHistoryCorrupt(t *testing.T) {
	frame := observeFrame
	prefix := func() []byte {
		return appendVarint(columnHead(AskHistory), 2e9) // IntervalNS
	}
	// point emits one well-formed empty snapshot point.
	point := func(b []byte) []byte {
		b = appendVarint(b, 1700000000000000000) // AtNS
		b = appendVarint(b, 1)                   // StartEpochNS
		b = appendVarint(b, 1)                   // UptimeNS
		b = appendUvarint(b, 0)                  // no stats
		return appendUvarint(b, 0)               // no hists
	}
	oneHistPrefix := func() []byte {
		b := appendUvarint(prefix(), 1)          // one point
		b = appendVarint(b, 1700000000000000000) // AtNS
		b = appendVarint(b, 1)                   // StartEpochNS
		b = appendVarint(b, 1)                   // UptimeNS
		b = appendUvarint(b, 0)                  // no stats
		b = appendUvarint(b, 1)                  // one hist
		b = appendString(b, "h")
		b = append(b, 4)        // SubBits
		b = appendVarint(b, 1)  // Count
		b = appendVarint(b, 1)  // Sum
		b = appendUvarint(b, 1) // one pair
		b = appendUvarint(b, 5) // idx
		return appendVarint(b, 1)
	}
	cases := []struct {
		name string
		body func() []byte
	}{
		{"absurd point count", func() []byte {
			return appendUvarint(prefix(), 1<<40)
		}},
		{"point count beyond payload", func() []byte {
			b := appendUvarint(prefix(), 2) // claims 2 points, carries 1
			return point(b)
		}},
		{"absurd exemplar count", func() []byte {
			return appendUvarint(oneHistPrefix(), 1<<40)
		}},
		{"exemplar index beyond uint16", func() []byte {
			b := appendUvarint(oneHistPrefix(), 1) // one exemplar
			b = appendUvarint(b, 70000)            // idx > 0xffff
			return appendU64(b, 0xfeedface)
		}},
		{"truncated exemplar trace id", func() []byte {
			b := appendUvarint(oneHistPrefix(), 1) // one exemplar
			b = appendUvarint(b, 5)
			return append(b, 0xde, 0xad) // 2 of 8 trace-id bytes
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, m, err := ReadFrame(bytes.NewReader(frame(tc.body())))
			if err == nil {
				t.Fatalf("decoded %+v from corrupt history frame", m)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
	bad := &Message{Kind: KindObserveResp, From: 1, ObserveResp: &ObserveResp{
		History: &telemetry.HistoryDump{Points: []telemetry.HistoryPoint{
			{AtNS: 1, Snap: telemetry.MetricsSnapshot{
				Hists: []telemetry.QHistSnapshot{{Name: "h",
					ExIdx: []uint16{1, 2}, ExTrace: []uint64{5}}}}}}}}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, 0, bad); err == nil {
		t.Fatal("encoder accepted mismatched ExIdx/ExTrace lengths")
	}
}

// TestBinaryRepairCorrupt runs the corruption table for the repair
// column: absurd tally counts are refused before allocation, and
// truncated tally lists surface ErrCorrupt rather than partial decodes.
func TestBinaryRepairCorrupt(t *testing.T) {
	frame := observeFrame
	prefix := func() []byte {
		b := columnHead(AskRepair)
		b = appendBool(b, true) // Enabled
		b = appendVarint(b, 4)  // Rounds
		b = appendVarint(b, 80) // Messages
		b = appendVarint(b, 2)  // LastFaults
		b = appendVarint(b, 2)  // LastHeals
		b = appendVarint(b, 0)  // LastUnhealed
		return b
	}
	cases := []struct {
		name string
		body func() []byte
	}{
		{"absurd fault tally count", func() []byte {
			return appendUvarint(prefix(), 1<<40)
		}},
		{"tally count beyond payload", func() []byte {
			b := appendUvarint(prefix(), 2) // claims 2 tallies, carries 1
			b = appendString(b, "dead-ref")
			return appendVarint(b, 5)
		}},
		{"truncated tally name", func() []byte {
			b := appendUvarint(prefix(), 1)
			b = appendUvarint(b, 12)   // name claims 12 bytes
			return append(b, 'd', 'e') // carries 2
		}},
		{"missing heal tallies", func() []byte {
			b := appendUvarint(prefix(), 0) // zero fault tallies
			return b                        // heal tally count absent entirely
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, m, err := ReadFrame(bytes.NewReader(frame(tc.body())))
			if err == nil {
				t.Fatalf("decoded %+v from corrupt repair frame", m)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

// v1MetricsBody is a metrics column in the retired v1 layout: a leading
// schema varint, no incarnation stamps, and no exemplar list after a
// histogram's pairs.
func v1MetricsBody() []byte {
	b := columnHead(AskMetrics)
	b = appendVarint(b, 1)  // schema: v1
	b = appendUvarint(b, 1) // one stat
	b = appendString(b, "pgrid_rpc_served_total")
	b = appendVarint(b, 42)
	b = appendUvarint(b, 1) // one hist
	b = appendString(b, "h")
	b = append(b, 4)        // SubBits
	b = appendVarint(b, 2)  // Count
	b = appendVarint(b, 30) // Sum
	b = appendUvarint(b, 1) // one pair, and no exemplar list after it
	b = appendUvarint(b, 7) // idx
	return appendVarint(b, 2)
}

// TestBinaryMetricsV1Body pins that a metrics column has one layout: the
// hand-built v1 body is refused as corrupt, while the same stat and
// histogram written by the encoder decode intact.
func TestBinaryMetricsV1Body(t *testing.T) {
	if _, _, m, err := ReadFrame(bytes.NewReader(observeFrame(v1MetricsBody()))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 metrics body: err = %v (decoded %+v), want ErrCorrupt", err, m)
	}
	b, err := appendMetricsSnapshot(columnHead(AskMetrics), telemetry.MetricsSnapshot{
		Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 42}},
		Hists: []telemetry.QHistSnapshot{{Name: "h", SubBits: 4, Count: 2, Sum: 30,
			Idx: []uint16{7}, N: []int64{2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m, err := ReadFrame(bytes.NewReader(observeFrame(b)))
	if err != nil {
		t.Fatalf("current metrics body: %v", err)
	}
	snap := *m.ObserveResp.Metrics
	if v, ok := snap.Stat("pgrid_rpc_served_total"); !ok || v != 42 {
		t.Fatalf("stat lost: %v %v", v, ok)
	}
	if h, ok := snap.Hist("h"); !ok || h.Count != 2 || h.Sum != 30 || len(h.Idx) != 1 || h.Idx[0] != 7 {
		t.Fatalf("hist decoded wrong: %+v", h)
	}
}

// TestBinaryPathBitCountOverflow feeds a path whose uvarint bit count is
// 2^64-1: the (nbits+7)/8 byte computation would wrap to 0 and bypass the
// remaining-bytes guard, making the decoder attempt an impossible
// allocation. The decoder must reject it as corrupt, never panic.
func TestBinaryPathBitCountOverflow(t *testing.T) {
	b := []byte{}
	b = appendVarint(b, 1)           // From
	b = appendBool(b, true)          // payload present
	b = appendUvarint(b, ^uint64(0)) // bit count: 2^64-1, wraps (n+7)/8
	b = append(b, 0x00)              // one byte of "path data"
	frame := []byte{magic0, magic1, BinaryVersion, byte(KindQuery), 0, 0, 0, 0, 0}
	frame = append(frame, byte(len(b)>>24), byte(len(b)>>16), byte(len(b)>>8), byte(len(b)))
	frame = append(frame, b...)
	_, _, _, err := ReadFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for overflowing bit count, got %v", err)
	}
}

// TestBinaryNestedBatchRejected pins that the batch envelope is gone in both
// directions: slot 20 is reserved, so the encoder has no body for it, and a
// batch frame as a pre-change peer built one — here a batch nested in a batch,
// which that peer refused too — decodes to ErrCorrupt.
func TestBinaryNestedBatchRejected(t *testing.T) {
	const batch = Kind(20)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, 0, &Message{Kind: batch, From: 1}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("batch kind encodes: err = %v, want ErrUnknownKind", err)
	}
	b := []byte{}
	b = appendVarint(b, 1)     // From
	b = appendUvarint(b, 1)    // one sub-message
	b = append(b, byte(batch)) // which is itself a batch
	b = appendVarint(b, 1)     // sub From
	b = appendUvarint(b, 0)    // empty inner batch
	frame := []byte{magic0, magic1, BinaryVersion, byte(batch), 0, 0, 0, 0, 0}
	frame = append(frame, byte(len(b)>>24), byte(len(b)>>16), byte(len(b)>>8), byte(len(b)))
	frame = append(frame, b...)
	_, _, _, err := ReadFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for nested batch, got %v", err)
	}
}

// TestBinaryPathPadding pins canonical bit-packing: a path frame whose
// trailing pad bits are non-zero is corrupt, so every path has exactly one
// encoding.
func TestBinaryPathPadding(t *testing.T) {
	b := []byte{}
	b = appendVarint(b, 1)  // From
	b = appendBool(b, true) // payload present
	b = appendUvarint(b, 3) // 3 bits
	b = append(b, 0xff)     // 111 + pad bits 11111 (must be 0)
	frame := []byte{magic0, magic1, BinaryVersion, byte(KindScan), 0, 0, 0, 0, 0}
	frame = append(frame, byte(len(b)>>24), byte(len(b)>>16), byte(len(b)>>8), byte(len(b)))
	frame = append(frame, b...)
	_, _, _, err := ReadFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for dirty padding, got %v", err)
	}
}

// TestBinaryPathRoundTrip sweeps path lengths across byte boundaries.
func TestBinaryPathRoundTrip(t *testing.T) {
	for n := 0; n <= 67; n++ {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte('0' + byte((i*7+n)%2))
		}
		p := bitpath.MustParse(sb.String())
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 0, 0, &Message{Kind: KindScan, From: 1,
			Scan: &ScanReq{Prefix: p}}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, _, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Scan.Prefix != p {
			t.Fatalf("n=%d: %q != %q", n, got.Scan.Prefix, p)
		}
	}
}

// readFrameSeeds is FuzzReadFrame's seed corpus, in its committed order.
func readFrameSeeds(f testing.TB) [][]byte {
	var seeds [][]byte
	for _, m := range sampleMessages() {
		for _, flags := range []uint8{0, FlagResponse} {
			frame, err := AppendFrame(nil, 3, flags, m)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, frame)
		}
	}
	seeds = append(seeds, []byte{})
	seeds = append(seeds, []byte{magic0})
	seeds = append(seeds, []byte{magic0, magic1, BinaryVersion, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// A header that promises a payload and then ends, a frame from a later
	// codec version, and each reserved kind slot.
	seeds = append(seeds, []byte{magic0, magic1, BinaryVersion, byte(KindGet), 0, 0, 0, 0, 1, 0, 0, 0, 9})
	seeds = append(seeds, []byte{magic0, magic1, BinaryVersion + 1, byte(KindInfo), 0, 0, 0, 0, 1, 0, 0, 0, 1, 2})
	for _, k := range reservedKinds() {
		seeds = append(seeds, []byte{magic0, magic1, BinaryVersion, byte(k), 0, 0, 0, 0, 1, 0, 0, 0, 2, 2, 1})
	}
	// The stats request and response exactly as a peer from before the
	// retirement of kinds 12/13 still sends them.
	seeds = append(seeds, []byte{magic0, magic1, BinaryVersion, 12, 1, 0, 0, 0, 3, 0, 0, 0, 1, 0x1e})
	seeds = append(seeds, []byte{magic0, magic1, BinaryVersion, 13, 1, 0, 0, 0, 3, 0, 0, 0, 0x15, 0x20, 1, 2, 2,
		9, 'r', 'p', 'c', '_', 't', 'o', 't', 'a', 'l', 0xf6, 1, 3, 'n', 'e', 'g', 0x0d})
	// A query level and an exchange depth below zero: the codec carries both
	// as signed varints and decodes them cleanly (the node refuses them).
	for _, m := range []*Message{
		{Kind: KindQuery, From: 1, Query: &QueryReq{Key: "01", Level: -1}},
		{Kind: KindExchange, From: 1, Exchange: &ExchangeReq{Path: "01", Depth: -1}},
	} {
		frame, err := AppendFrame(nil, 3, 0, m)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	return seeds
}

// FuzzReadFrame: arbitrary bytes in, never a panic, hang, or
// over-allocation; decoded messages must re-encode.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range readFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 4; i++ {
			_, _, m, err := ReadFrame(r)
			if err != nil {
				return
			}
			for _, h := range decodedHists(m) {
				if err := h.Validate(); err != nil {
					t.Fatalf("decoded histogram fails Validate: %v", err)
				}
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, 0, 0, m); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
		}
	})
}

// TestDecodedHistogramsValidate: a metrics column or a history point whose
// histogram breaks QHistSnapshot.Validate decodes to ErrCorrupt — an index
// past the 960-bucket geometry, descending indexes, a bucket count of zero
// or below, a Count other than the buckets' sum, a bad exemplar — so no
// malformed answer reaches a merge. The encoder frames such a snapshot as
// it is (it checks only that the arrays pair up), which is how each frame
// here is made.
func TestDecodedHistogramsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    telemetry.QHistSnapshot
	}{
		{"index past the geometry", telemetry.QHistSnapshot{Count: 1, Idx: []uint16{960}, N: []int64{1}}},
		{"descending indexes", telemetry.QHistSnapshot{Count: 2, Idx: []uint16{7, 3}, N: []int64{1, 1}}},
		{"repeated index", telemetry.QHistSnapshot{Count: 2, Idx: []uint16{3, 3}, N: []int64{1, 1}}},
		{"zero count", telemetry.QHistSnapshot{Count: 0, Idx: []uint16{3}, N: []int64{0}}},
		{"negative count", telemetry.QHistSnapshot{Count: 4, Idx: []uint16{3, 5}, N: []int64{9, -5}}},
		{"count not the bucket sum", telemetry.QHistSnapshot{Count: 5, Idx: []uint16{3}, N: []int64{4}}},
		{"foreign geometry", telemetry.QHistSnapshot{SubBits: 5, Count: 1, Idx: []uint16{3}, N: []int64{1}}},
		{"exemplar index past the geometry", telemetry.QHistSnapshot{Count: 1, Idx: []uint16{3}, N: []int64{1},
			ExIdx: []uint16{1000}, ExTrace: []uint64{9}}},
		{"zero exemplar trace id", telemetry.QHistSnapshot{Count: 1, Idx: []uint16{3}, N: []int64{1},
			ExIdx: []uint16{3}, ExTrace: []uint64{0}}},
	} {
		h := tc.h
		h.Name = `pgrid_rpc_served_latency_ns{kind="query"}`
		if h.SubBits == 0 {
			h.SubBits = 4
		}
		snap := telemetry.MetricsSnapshot{StartEpochNS: 1, UptimeNS: 1,
			Hists: []telemetry.QHistSnapshot{h}}
		for col, o := range map[string]*ObserveResp{
			"metrics": {Metrics: &snap},
			"history": {History: &telemetry.HistoryDump{IntervalNS: 1e9,
				Points: []telemetry.HistoryPoint{{AtNS: 1}, {AtNS: 2, Snap: snap}}}},
		} {
			t.Run(tc.name+"/"+col, func(t *testing.T) {
				var buf bytes.Buffer
				if err := WriteFrame(&buf, 1, FlagResponse, &Message{Kind: KindObserveResp, From: 1, ObserveResp: o}); err != nil {
					t.Fatal(err)
				}
				if _, _, m, err := ReadFrame(&buf); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadFrame = %+v, %v, want ErrCorrupt", m, err)
				}
			})
		}
	}
}

// decodedHists are the histograms a decoded message carries: its metrics
// column's and every history point's.
func decodedHists(m *Message) []telemetry.QHistSnapshot {
	o := m.ObserveResp
	if o == nil {
		return nil
	}
	var out []telemetry.QHistSnapshot
	if o.Metrics != nil {
		out = append(out, o.Metrics.Hists...)
	}
	if o.History != nil {
		for _, p := range o.History.Points {
			out = append(out, p.Snap.Hists...)
		}
	}
	return out
}
