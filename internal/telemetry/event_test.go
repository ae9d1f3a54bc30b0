package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestEventSchemaGolden pins the JSONL event schema. If this test fails,
// either restore compatibility or bump SchemaVersion AND regenerate the
// golden file with `go test ./internal/telemetry -run Golden -update`.
func TestEventSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	in := New(3)
	ts := int64(1_700_000_000_000_000_000)
	in.SetClock(func() int64 { ts += 1_000_000; return ts })
	in.SetSink(sink)

	in.EmitExchange("1", 2, 0, 7, 9)
	in.EmitQuery("010110", true, 3, 1)
	in.Emit(KindRound, map[string]any{"meetings": int64(500), "exchanges": int64(1234), "avg_path_len": 3.25, "target": 5.94})
	in.Emit(KindBuild, map[string]any{"n": 500, "meetings": int64(9000), "exchanges": int64(12210), "avg_path_len": 5.95, "converged": true, "seconds": 0.25})
	in.EmitRPC("query", 2, 1234)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("event schema drifted from golden file\n got: %s\nwant: %s", buf.Bytes(), want)
	}

	// The typed lines are what json.Marshal writes for the same Event.
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	for i, e := range map[int]Event{
		0: {Kind: KindExchange, Attrs: map[string]any{"case": "1", "lc": 2, "depth": 0, "a1": 7, "a2": 9}},
		1: {Kind: KindQuery, Attrs: map[string]any{"key": "010110", "found": true, "hops": 3, "backtracks": 1}},
		4: {Kind: KindRPC, Attrs: map[string]any{"kind": "query", "peer": 2, "us": int64(1234)}},
	} {
		e.V, e.TS, e.Node = SchemaVersion, 1_700_000_000_000_000_000+int64(i+1)*1_000_000, 3
		if m, _ := json.Marshal(e); !bytes.Equal(lines[i], m) {
			t.Errorf("typed %s line\n got  %s\n want %s", e.Kind, lines[i], m)
		}
	}
	// Every line must carry the schema version — consumers key on it.
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %s: %v", line, err)
		}
		if e.V != SchemaVersion {
			t.Errorf("line %s: v = %d, want %d", line, e.V, SchemaVersion)
		}
		if e.Node != 3 || e.TS == 0 || e.Kind == "" {
			t.Errorf("line %s: incomplete envelope", line)
		}
	}
}

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(failWriter{})
	sink.Emit(Event{V: SchemaVersion, Kind: KindRound})
	if err := sink.Flush(); err == nil {
		t.Fatal("expected sticky error")
	}
	if sink.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
	sink.Emit(Event{V: SchemaVersion, Kind: KindRound}) // must not panic
	sink.emitExchange(1, 0, "1", 0, 0, 1, 2)
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errTest }

// decodeEvents parses JSONL, failing the test on any line that is not one
// schema-versioned Event.
func decodeEvents(t *testing.T, jsonl []byte) []Event {
	t.Helper()
	var out []Event
	for _, line := range bytes.Split(bytes.TrimSuffix(jsonl, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if e.V != SchemaVersion {
			t.Fatalf("line %q: v = %d", line, e.V)
		}
		out = append(out, e)
	}
	return out
}

func TestSetSinkAttachDetach(t *testing.T) {
	in := New(-1)
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	in.SetSink(s)
	if !in.EventsOn() {
		t.Fatal("EventsOn false with sink attached")
	}
	in.Emit(KindRound, map[string]any{"meetings": 1})
	in.SetSink(nil)
	if in.EventsOn() {
		t.Fatal("EventsOn true after detach")
	}
	in.Emit(KindRound, nil) // no sink: not written
	in.EmitExchange("1", 0, 0, 1, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, buf.Bytes())
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if e := events[0]; e.Kind != KindRound || e.Node != -1 || e.TS == 0 {
		t.Errorf("bad event %+v", e)
	}
}

// TestJSONLSinkConcurrentLines: goroutines emitting onto one sink at once
// leave exactly one whole line per event, each goroutine's in its order.
// Run under -race.
func TestJSONLSinkConcurrentLines(t *testing.T) {
	const emitters, perEmitter = 8, 2000
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				switch i % 3 {
				case 0:
					sink.emitRPC(int64(i), g, "query", g, int64(i))
				case 1:
					sink.emitExchange(int64(i), g, "replica", i, 0, g, i)
				default:
					sink.Emit(Event{V: SchemaVersion, TS: int64(i), Node: g, Kind: KindRound, Attrs: map[string]any{"i": i}})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, buf.Bytes())
	if len(events) != emitters*perEmitter {
		t.Fatalf("%d lines, want %d", len(events), emitters*perEmitter)
	}
	next := make([]int64, emitters)
	for _, e := range events {
		if e.Node < 0 || e.Node >= emitters {
			t.Fatalf("line from no emitter: %+v", e)
		}
		if e.TS != next[e.Node] {
			t.Fatalf("line out of place: %+v (emitter's next ts %d)", e, next[e.Node])
		}
		next[e.Node]++
	}
}

// Err returns the sink's sticky error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
