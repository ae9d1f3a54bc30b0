package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"pgrid/internal/raceflag"
)

// hostileStrings are the string contents the typed events' string attrs
// (case, key, kind) are checked against: what they carry, plus every
// escaping rule encoding/json applies.
var hostileStrings = []string{
	"", "1", "replica", "010011", "query",
	"<a href=\"x\">&amp;</a>",
	"tab\tnl\ncr\rbs\bff\fbell\x07",
	"héllo wörld ☃",
	"a\u2028b\u2029c",
	"bad\xffutf8",
}

// emitTyped writes one event of each typed kind carrying str, and returns
// the Events json.Marshal must encode to the same lines.
func emitTyped(s *JSONLSink, str string) []Event {
	s.emitExchange(1_700_000_000_000_000_000, 3, str, 2, 0, 7, -9)
	s.emitQuery(42, -1, str, true, 4, 0)
	s.emitRPC(43, 0, str, 2, 1234)
	return []Event{
		{V: SchemaVersion, TS: 1_700_000_000_000_000_000, Node: 3, Kind: KindExchange,
			Attrs: map[string]any{"case": str, "lc": 2, "depth": 0, "a1": 7, "a2": -9}},
		{V: SchemaVersion, TS: 42, Node: -1, Kind: KindQuery,
			Attrs: map[string]any{"key": str, "found": true, "hops": 4, "backtracks": 0}},
		{V: SchemaVersion, TS: 43, Node: 0, Kind: KindRPC,
			Attrs: map[string]any{"kind": str, "peer": 2, "us": int64(1234)}},
	}
}

// TestAppendEventMatchesMarshal pins every line the sink appends — the
// typed kinds encoded field by field, and the generic path — to
// encoding/json.Marshal of the equivalent Event, byte for byte.
func TestAppendEventMatchesMarshal(t *testing.T) {
	for _, str := range hostileStrings {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		want := emitTyped(s, str)
		generic := Event{V: SchemaVersion, TS: 44, Node: 2, Kind: KindBuild,
			Attrs: map[string]any{"s": str, "seconds": 0.0000001, "big": 1e22, "neg": -2.5e-9, "nil": nil}}
		s.Emit(generic)
		want = append(want, generic)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) != len(want) {
			t.Fatalf("%q: %d lines, want %d", str, len(lines), len(want))
		}
		for i, e := range want {
			m, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lines[i], m) {
				t.Errorf("%s with %q:\n got  %s\n want %s", e.Kind, str, lines[i], m)
			}
		}
	}
}

// TestAppendEventReusesBuffer: a typed event is encoded into the sink's
// one buffer and written without a single allocation.
func TestAppendEventReusesBuffer(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	in := New(1)
	in.SetSink(NewJSONLSink(io.Discard))
	for name, f := range map[string]func(){
		"EmitExchange": func() { in.EmitExchange("replica", 3, 0, 7, 9) },
		"EmitQuery":    func() { in.EmitQuery("010110", true, 3, 1) },
		"EmitRPC":      func() { in.EmitRPC("query", 7, 1234) },
	} {
		f() // first use grows the buffer
		if got := testing.AllocsPerRun(200, f); got != 0 {
			t.Errorf("%s: %.1f allocs per event, want 0", name, got)
		}
	}
}

// TestAppendEventError: an event json.Marshal cannot encode becomes the
// sink's sticky error, and no partial line reaches the writer.
func TestAppendEventError(t *testing.T) {
	for _, attrs := range []map[string]any{{"fn": func() {}}, {"nan": math.NaN()}} {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		s.Emit(Event{V: SchemaVersion, Kind: "bad", Attrs: attrs})
		s.emitQuery(1, 0, "k", true, 1, 0)
		if s.Flush() == nil {
			t.Errorf("%v: no error", attrs)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: wrote %q after the error", attrs, buf.Bytes())
		}
	}
}
