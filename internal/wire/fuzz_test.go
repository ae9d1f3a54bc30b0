package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// frameReadSizes are the bufio.Reader sizes ReadFrame is held to: bufio's
// default, the one both ends of a connection read through (internal/node's
// frameReadBuffer; its comment points back here), and
// bufio's 16-byte minimum, where every frame straddles fills.
var frameReadSizes = []int{4096, 256, 16}

// readersAgree reads up to four frames from data through a plain reader and
// through a bufio.Reader of each of frameReadSizes. ReadFrame picks its header
// path from the reader's type — parsed in place in a *bufio.Reader's buffer,
// read into a scratch header from anything else — and whatever the buffer's
// size every reader must see the same frames, stop on the same error and have
// consumed the same bytes after each frame. It returns the frames read.
func readersAgree(t *testing.T, data []byte) (frames int) {
	t.Helper()
	plain := bytes.NewReader(data)
	sources := make([]*bytes.Reader, len(frameReadSizes))
	buffered := make([]*bufio.Reader, len(frameReadSizes))
	for i, size := range frameReadSizes {
		sources[i] = bytes.NewReader(data)
		buffered[i] = bufio.NewReaderSize(sources[i], size)
	}
	for ; frames < 4; frames++ {
		seq1, flags1, m1, err1 := ReadFrame(plain)
		for i, br := range buffered {
			seq2, flags2, m2, err2 := ReadFrame(br)
			if fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("frame %d: plain reader err %v, %d-byte bufio reader err %v", frames, err1, frameReadSizes[i], err2)
			}
			if err1 != nil {
				continue
			}
			if seq1 != seq2 || flags1 != flags2 || !reflect.DeepEqual(m1, m2) {
				t.Fatalf("frame %d: plain reader %d/%d/%+v, %d-byte bufio reader %d/%d/%+v",
					frames, seq1, flags1, m1, frameReadSizes[i], seq2, flags2, m2)
			}
			if c1, c2 := len(data)-plain.Len(), len(data)-sources[i].Len()-br.Buffered(); c1 != c2 {
				t.Fatalf("frame %d: plain reader consumed %d bytes, %d-byte bufio reader %d", frames, c1, frameReadSizes[i], c2)
			}
		}
		if err1 != nil {
			return frames
		}
	}
	return frames
}

// FuzzReadFramePlainVsBufio holds ReadFrame's header paths to each other on
// every input: see readersAgree.
func FuzzReadFramePlainVsBufio(f *testing.F) {
	// Bytes that do not open with the magic: a length prefix and a body.
	noise := []byte{0, 0, 0, 5, 1, 2, 3, 4, 5}
	f.Add(noise)
	frame, err := AppendFrame(nil, 9, 0, &Message{Kind: KindObserveResp, From: 4,
		ObserveResp: &ObserveResp{Health: &HealthColumn{Rounds: 2, Digest: health.Digest{Addr: 4,
			Path: bitpath.MustParse("01"), Entries: 3, MaxVersion: 17,
			IndexHash: 0xabcdef, RefCounts: []int{2, 1}, Buddies: 1}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(append(append([]byte{}, frame...), noise...))
	f.Add([]byte{0x50, 0x00})
	// A BFS visit with each rider and each answer, back to back: the rider
	// closes its frame, so a reader that overran it would eat the next.
	entry := store.Entry{Key: bitpath.MustParse("0110"), Name: "f", Holder: 3, Version: 7}
	var visits []byte
	for i, m := range []*Message{
		{Kind: KindInfo, From: 1, Info: &InfoReq{Apply: &ApplyReq{Entries: []store.Entry{entry}}}},
		{Kind: KindInfoResp, From: 2, InfoResp: &InfoResp{Addr: 2, Path: entry.Key[:2],
			Refs: []RefSet{{Addrs: []addr.Addr{5}}, {Addrs: []addr.Addr{6, 7}}}, Applied: &ApplyResp{Changed: true}}},
		{Kind: KindInfo, From: 1, Info: &InfoReq{Scan: &ScanReq{Prefix: entry.Key[:3]}}},
		{Kind: KindInfoResp, From: 2, InfoResp: &InfoResp{Addr: 2, Path: entry.Key[:2],
			Scanned: &ScanResp{Entries: []store.Entry{entry}}}},
	} {
		if visits, err = AppendFrame(visits, uint32(i), uint8(i%2), m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(visits)
	// An observe asking every column and its answer, and a handover's apply
	// list and its answer, back to back.
	var observed []byte
	for i, m := range []*Message{
		{Kind: KindObserve, From: 1, Observe: &ObserveReq{Asks: AskLinks | AskHealth | AskLiveness | AskMetrics |
			AskHistory | AskRepair | AskTraces, WindowNS: 1e9, MaxPoints: 4, TraceLimit: 2}},
		{Kind: KindObserveResp, From: 2, ObserveResp: &ObserveResp{
			Links:   &InfoResp{Addr: 2, Path: entry.Key[:2], Refs: []RefSet{{Addrs: []addr.Addr{5}}, {Addrs: []addr.Addr{6, 7}}}},
			Health:  &HealthColumn{Digest: health.Digest{Addr: 2, Path: entry.Key[:2], RefCounts: []int{1, 2}}, Rounds: 3},
			Metrics: &telemetry.MetricsSnapshot{Stats: []telemetry.Stat{{Name: "n", Value: 1}}},
			History: &telemetry.HistoryDump{IntervalNS: 1e9},
			Repair:  &repair.Status{Enabled: true, Faults: []repair.Tally{{Name: repair.FaultDeadRef, N: 1}}},
			Traces:  &TracesColumn{Total: 1, Traces: []trace.Trace{{TraceID: 5, Key: entry.Key, Found: true}}}}},
		{Kind: KindApply, From: 1, Apply: &ApplyReq{Entries: []store.Entry{entry, entry, {Key: entry.Key[:1], Name: "g", Version: 1}}}},
		{Kind: KindApplyResp, From: 2, ApplyResp: &ApplyResp{Changed: true}},
	} {
		if observed, err = AppendFrame(observed, uint32(i), uint8(i%2), m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(observed)
	// A routed read and its answer whose second path is not cut from the
	// first's string: a routed key that does not end the read key, an answered
	// path that does not start the entry key.
	var mismatched []byte
	for i, m := range []*Message{
		{Kind: KindQuery, From: 1, Query: &QueryReq{Key: entry.Key[:3], Level: 1, Read: &GetReq{Key: entry.Key, Name: entry.Name}}},
		{Kind: KindQueryResp, From: 2, QueryResp: &QueryResp{Found: true, Peer: 2, Path: entry.Key[1:], Entry: entry, Has: true}},
	} {
		if mismatched, err = AppendFrame(mismatched, uint32(i), uint8(i%2), m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(mismatched)
	// Link states inside the answer's room and past it — nine levels and a
	// 9-bit path, 70 addresses — back to back: the fallbacks read what the
	// room reads.
	nine := bitpath.MustParse("011010010")
	deep := make([]RefSet, 9)
	for i := range deep {
		deep[i] = RefSet{Addrs: []addr.Addr{addr.Addr(i), addr.Addr(20 + i), addr.Addr(40 + i), 60, 61, 62, 63, 64}}
	}
	var rooms []byte
	for i, m := range []*Message{
		{Kind: KindInfoResp, From: 2, InfoResp: &InfoResp{Addr: 2, Path: nine[:8], Refs: deep[:8], Buddies: RefSet{Addrs: []addr.Addr{9}}}},
		{Kind: KindInfoResp, From: 2, InfoResp: &InfoResp{Addr: 2, Path: nine, Refs: deep, Entries: 4}},
		{Kind: KindExchange, From: 1, Exchange: &ExchangeReq{Path: nine, Refs: deep, Depth: 1}},
	} {
		if rooms, err = AppendFrame(rooms, uint32(i), uint8(i%2), m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(rooms)
	f.Fuzz(func(t *testing.T, data []byte) { readersAgree(t, data) })
}

// FuzzRoundTrip encodes fuzz-shaped queries — with and without a trace
// context, with and without a read riding along (readKey "-" for none) —
// and their answers — the read's, found and not, and one going on through
// refs references — and verifies they decode to the same payload. The seeds
// include reads whose key and name fill the decoder's pair room to one byte
// short of it, exactly and one byte past it.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int32(1), "0101", 2, false, uint64(0), 0, "-", "")
	f.Add(int32(9), "1", 0, false, uint64(3), 1, "-", "")
	f.Add(int32(2), "11", 0, true, uint64(42), 8, "-", "")
	f.Add(int32(5), "0", 1, true, uint64(1), 64, "-", "")
	f.Add(int32(1), "0101", 0, false, uint64(0), 0, "0101", "doc-17")
	f.Add(int32(7), "01", 3, true, uint64(9), 4, "110101", "")
	f.Add(int32(3), "", 2, false, uint64(5), 0, "", "x")
	for _, n := range []int{len(pairRoom{}) - 1, len(pairRoom{}), len(pairRoom{}) + 1} {
		f.Add(int32(4), "01", 2, false, uint64(6), 0, "0101", strings.Repeat("r", n-4))
		f.Add(int32(4), "", 0, true, uint64(6), 3, strings.Repeat("10", n)[:n], "")
	}
	f.Fuzz(func(t *testing.T, from int32, key string, level int, traced bool, traceID uint64, refs int, readKey, name string) {
		p, err := bitpath.Parse(key)
		if err != nil {
			return
		}
		if from < -1 {
			from &= 0x7fffffff // the codec (rightly) rejects addresses below addr.Nil
		}
		m := &Message{Kind: KindQuery, From: addrOf(from),
			Query: &QueryReq{Key: p, Level: level}}
		if traced {
			m.Query.Ctx = &trace.SpanContext{TraceID: traceID, Parent: traceID / 2, Sampled: true}
		}
		if rk, err := bitpath.Parse(readKey); err == nil {
			m.Query.Read = &GetReq{Key: rk, Name: name}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, 0, m); err != nil {
			t.Fatalf("encode: %v", err)
		}
		_, _, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(wireContent(got), m) {
			t.Fatalf("query mismatch: %+v %+v vs %+v %+v", got, got.Query, m, m.Query)
		}
		// The answer going on, through up to 40 references: past the room a
		// decoded answer holds them in.
		on := &QueryResp{Peer: addr.Nil, Path: p}
		for i := 0; i < min(max(refs, 0), 40); i++ {
			on.Refs.Addrs = append(on.Refs.Addrs, addr.Addr(i))
		}
		answers := []*QueryResp{on}
		// The answer to the read, found and not.
		if read := m.Query.Read; read != nil {
			for _, has := range []bool{true, false} {
				resp := &QueryResp{Found: true, Peer: addrOf(from), Path: p, Has: has}
				if has {
					resp.Entry = store.Entry{Key: read.Key, Name: name, Holder: addrOf(from), Version: traceID}
				}
				answers = append(answers, resp)
			}
		}
		for _, resp := range answers {
			if err := WriteFrame(&buf, 2, FlagResponse, &Message{Kind: KindQueryResp, From: addrOf(from), QueryResp: resp}); err != nil {
				t.Fatalf("encode: %v", err)
			}
			_, _, got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got.QueryResp, resp) {
				t.Fatalf("answer mismatch: %+v vs %+v", got.QueryResp, resp)
			}
		}
	})
}

// FuzzHealthRoundTrip encodes fuzz-shaped health columns and verifies
// they decode to the same digest — the health twin of FuzzRoundTrip, so
// the crawler's wire surface holds up under arbitrary census shapes.
func FuzzHealthRoundTrip(f *testing.F) {
	f.Add(int32(0), "", 0, uint64(0), uint64(0), uint8(0), int64(0), int64(0))
	f.Add(int32(3), "0110", 12, uint64(99), uint64(0xfeed), uint8(3), int64(7), int64(1))
	f.Add(int32(1000), "1", 1, uint64(1)<<63, ^uint64(0), uint8(40), int64(1)<<40, int64(0))
	f.Fuzz(func(t *testing.T, from int32, path string, entries int, maxVer, hash uint64, levels uint8, live, dead int64) {
		p, err := bitpath.Parse(path)
		if err != nil {
			return
		}
		if from < -1 {
			from &= 0x7fffffff // the codec (rightly) rejects addresses below addr.Nil
		}
		d := health.Digest{Addr: addrOf(from), Path: p, Entries: entries,
			MaxVersion: maxVer, IndexHash: hash, Buddies: int(levels)}
		for l := 1; l <= int(levels%8); l++ {
			d.RefCounts = append(d.RefCounts, l)
			d.Liveness = append(d.Liveness, health.LevelProbe{Level: l, Live: live, Dead: dead})
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, FlagResponse, &Message{Kind: KindObserveResp, From: addrOf(from),
			ObserveResp: &ObserveResp{Health: &HealthColumn{Digest: d, Rounds: live + dead}}}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		_, _, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ObserveResp == nil || got.ObserveResp.Health == nil {
			t.Fatal("health column lost")
		}
		g := got.ObserveResp.Health.Digest
		if g.Addr != d.Addr || g.Path != d.Path || g.Entries != d.Entries ||
			g.MaxVersion != d.MaxVersion || g.IndexHash != d.IndexHash || g.Buddies != d.Buddies {
			t.Fatalf("digest mismatch: %+v vs %+v", g, d)
		}
		if len(g.RefCounts) != len(d.RefCounts) || len(g.Liveness) != len(d.Liveness) {
			t.Fatalf("slices mismatch: %+v vs %+v", g, d)
		}
		for i := range d.Liveness {
			if g.Liveness[i] != d.Liveness[i] || g.RefCounts[i] != d.RefCounts[i] {
				t.Fatalf("level %d mismatch: %+v vs %+v", i, g, d)
			}
		}
	})
}

// FuzzMetricsRoundTrip encodes fuzz-shaped metrics columns through the
// codec and verifies they decode to the same snapshot, or to ErrCorrupt when
// the histogram fails QHistSnapshot.Validate — the federation twin of
// FuzzHealthRoundTrip.
func FuzzMetricsRoundTrip(f *testing.F) {
	f.Add(int32(0), "", int64(0), uint8(4), uint16(0), int64(1), uint8(0))
	f.Add(int32(3), "pgrid_rpc_served_total", int64(42), uint8(4), uint16(900), int64(7), uint8(5))
	f.Add(int32(-1), "x", int64(-8), uint8(7), uint16(0xffff), int64(1)<<40, uint8(20))
	f.Fuzz(func(t *testing.T, from int32, name string, value int64, subBits uint8, idx0 uint16, n0 int64, buckets uint8) {
		if from < -1 {
			from &= 0x7fffffff // the codec (rightly) rejects addresses below addr.Nil
		}
		snap := telemetry.MetricsSnapshot{Stats: []telemetry.Stat{{Name: name, Value: value}}}
		h := telemetry.QHistSnapshot{Name: name, SubBits: subBits}
		for i := 0; i < int(buckets%32); i++ {
			h.Idx = append(h.Idx, idx0+uint16(i))
			h.N = append(h.N, n0)
			h.Count += n0
			h.Sum += n0 * int64(i)
		}
		snap.Hists = append(snap.Hists, h)
		m := &Message{Kind: KindObserveResp, From: addrOf(from), ObserveResp: &ObserveResp{Metrics: &snap}}

		check := func(got *Message, err error) {
			t.Helper()
			if h.Validate() != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("a histogram failing Validate decoded: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.ObserveResp == nil || got.ObserveResp.Metrics == nil {
				t.Fatalf("metrics column lost")
			}
			g := *got.ObserveResp.Metrics
			if len(g.Stats) != 1 || g.Stats[0] != snap.Stats[0] {
				t.Fatalf("stats mismatch: %+v vs %+v", g, snap)
			}
			gh := g.Hists[0]
			if gh.Name != h.Name || gh.SubBits != h.SubBits || gh.Count != h.Count ||
				gh.Sum != h.Sum || len(gh.Idx) != len(h.Idx) {
				t.Fatalf("hist mismatch: %+v vs %+v", gh, h)
			}
			for i := range h.Idx {
				if gh.Idx[i] != h.Idx[i] || gh.N[i] != h.N[i] {
					t.Fatalf("pair %d mismatch: %+v vs %+v", i, gh, h)
				}
			}
		}

		var bb bytes.Buffer
		if err := WriteFrame(&bb, 1, FlagResponse, m); err != nil {
			t.Fatalf("encode: %v", err)
		}
		_, _, got, err := ReadFrame(&bb)
		check(got, err)
	})
}

// FuzzHistoryRoundTrip encodes fuzz-shaped history columns — points with
// incarnation stamps and tail exemplars — through the codec and
// verifies they decode to the same dump, or to ErrCorrupt when a point's
// histogram fails QHistSnapshot.Validate. The history twin of
// FuzzMetricsRoundTrip.
func FuzzHistoryRoundTrip(f *testing.F) {
	f.Add(int32(0), int64(0), uint8(0), "", int64(0), uint16(0), uint64(0), int64(0))
	f.Add(int32(3), int64(2_000_000_000), uint8(4), "pgrid_rpc_served_total", int64(42), uint16(900), uint64(0xfeedface), int64(1700000000123456789))
	f.Add(int32(-1), int64(1)<<40, uint8(9), `lat{kind="query"}`, int64(-8), uint16(0xffff), ^uint64(0), int64(-5))
	f.Fuzz(func(t *testing.T, from int32, interval int64, points uint8, name string, value int64, exIdx uint16, exTrace uint64, epoch int64) {
		if from < -1 {
			from &= 0x7fffffff // the codec (rightly) rejects addresses below addr.Nil
		}
		dump := telemetry.HistoryDump{IntervalNS: interval}
		for i := 0; i < int(points%9); i++ {
			snap := telemetry.MetricsSnapshot{
				StartEpochNS: epoch + int64(i%3),
				UptimeNS:     int64(i) * interval,
				Stats:        []telemetry.Stat{{Name: name, Value: value + int64(i)}},
			}
			h := telemetry.QHistSnapshot{Name: name, SubBits: 4,
				Idx: []uint16{exIdx}, N: []int64{1 + int64(i)}, Count: 1 + int64(i), Sum: value}
			if exTrace != 0 {
				h.ExIdx = []uint16{exIdx}
				h.ExTrace = []uint64{exTrace}
			}
			snap.Hists = []telemetry.QHistSnapshot{h}
			dump.Points = append(dump.Points, telemetry.HistoryPoint{
				AtNS: epoch + int64(i)*interval, Snap: snap})
		}
		m := &Message{Kind: KindObserveResp, From: addrOf(from), ObserveResp: &ObserveResp{History: &dump}}

		check := func(got *Message, err error) {
			t.Helper()
			for _, p := range dump.Points {
				if p.Snap.Hists[0].Validate() != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("a histogram failing Validate decoded: %v", err)
					}
					return
				}
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.ObserveResp == nil || got.ObserveResp.History == nil {
				t.Fatalf("history column lost")
			}
			g := *got.ObserveResp.History
			if g.IntervalNS != dump.IntervalNS || len(g.Points) != len(dump.Points) {
				t.Fatalf("dump mismatch: %+v vs %+v", g, dump)
			}
			for i, want := range dump.Points {
				gp := g.Points[i]
				if gp.AtNS != want.AtNS || gp.Snap.StartEpochNS != want.Snap.StartEpochNS ||
					gp.Snap.UptimeNS != want.Snap.UptimeNS {
					t.Fatalf("point %d mismatch: %+v vs %+v", i, gp, want)
				}
				gh, wh := gp.Snap.Hists[0], want.Snap.Hists[0]
				if gh.Name != wh.Name || len(gh.Idx) != len(wh.Idx) || len(gh.ExIdx) != len(wh.ExIdx) {
					t.Fatalf("point %d hist mismatch: %+v vs %+v", i, gh, wh)
				}
				for j := range wh.ExIdx {
					if gh.ExIdx[j] != wh.ExIdx[j] || gh.ExTrace[j] != wh.ExTrace[j] {
						t.Fatalf("point %d exemplar %d mismatch: %+v vs %+v", i, j, gh, wh)
					}
				}
			}
		}

		var bb bytes.Buffer
		if err := WriteFrame(&bb, 1, FlagResponse, m); err != nil {
			t.Fatalf("encode: %v", err)
		}
		_, _, got, err := ReadFrame(&bb)
		check(got, err)
	})
}

// FuzzRepairRoundTrip encodes fuzz-shaped repair columns — arbitrary
// tally labels and counts, enabled or not — through the codec and
// verifies they decode to the same status.
func FuzzRepairRoundTrip(f *testing.F) {
	f.Add(int32(0), false, int64(0), int64(0), "", int64(0), uint8(0))
	f.Add(int32(3), true, int64(12), int64(480), "wrong-side-ref", int64(9), uint8(3))
	f.Add(int32(-1), true, int64(1)<<40, int64(-7), "evict-ref", int64(-2), uint8(40))
	f.Fuzz(func(t *testing.T, from int32, enabled bool, rounds, messages int64, label string, n0 int64, tallies uint8) {
		if from < -1 {
			from &= 0x7fffffff // the codec (rightly) rejects addresses below addr.Nil
		}
		st := repair.Status{Enabled: enabled, Rounds: rounds, Messages: messages,
			LastFaults: n0, LastHeals: rounds, LastUnhealed: messages}
		for i := 0; i < int(tallies%8); i++ {
			st.Faults = append(st.Faults, repair.Tally{Name: fmt.Sprintf("%s-%d", label, i), N: n0 + int64(i)})
			st.Heals = append(st.Heals, repair.Tally{Name: fmt.Sprintf("h-%s-%d", label, i), N: n0 - int64(i)})
		}
		m := &Message{Kind: KindObserveResp, From: addrOf(from), ObserveResp: &ObserveResp{Repair: &st}}

		check := func(got *Message, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.ObserveResp == nil || got.ObserveResp.Repair == nil {
				t.Fatalf("repair column lost")
			}
			g := *got.ObserveResp.Repair
			if g.Enabled != st.Enabled || g.Rounds != st.Rounds || g.Messages != st.Messages ||
				g.LastFaults != st.LastFaults || g.LastHeals != st.LastHeals || g.LastUnhealed != st.LastUnhealed ||
				len(g.Faults) != len(st.Faults) || len(g.Heals) != len(st.Heals) {
				t.Fatalf("status mismatch: %+v vs %+v", g, st)
			}
			for i := range st.Faults {
				if g.Faults[i] != st.Faults[i] || g.Heals[i] != st.Heals[i] {
					t.Fatalf("tally %d mismatch: %+v vs %+v", i, g, st)
				}
			}
		}

		var bb bytes.Buffer
		if err := WriteFrame(&bb, 1, FlagResponse, m); err != nil {
			t.Fatalf("encode: %v", err)
		}
		_, _, got, err := ReadFrame(&bb)
		check(got, err)
	})
}

func addrOf(v int32) addr.Addr { return addr.Addr(v) }
