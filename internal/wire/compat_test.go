package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pgrid/internal/telemetry"
)

// TestKindNumbering pins the wire numbering: kinds are append-only and
// requests stay even, so mixed-version peers agree on every value.
func TestKindNumbering(t *testing.T) {
	if KindError != 14 {
		t.Fatalf("KindError = %d, renumbering breaks old peers", KindError)
	}
	if KindObserve != 30 || KindObserveResp != 31 {
		t.Fatalf("KindObserve = %d/%d, want 30/31", KindObserve, KindObserveResp)
	}
	if KindObserve%2 != 0 {
		t.Fatal("KindObserve is odd: requests must stay even")
	}
	if KindObserve.String() != "observe" || KindObserveResp.String() != "observe-resp" {
		t.Fatalf("kind names: %v %v", KindObserve, KindObserveResp)
	}
	// Reserved slots stay unassigned: 12/13 carried the flat stats pair (the
	// metrics column answers a superset), 15 pairs off KindError, 16–21 the
	// traces, health and batch pairs, 22/23 the codec-negotiation hello, 24–29
	// the metrics, history and repair pairs (KindObserve carries all five
	// reads). No name, no body format in either direction.
	reserved := []Kind{12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}
	if got := reservedKinds(); !reflect.DeepEqual(got, reserved) {
		t.Fatalf("kindNames labels %v kind(N), want %v", got, reserved)
	}
	for _, k := range reserved {
		if want := fmt.Sprintf("kind(%d)", uint8(k)); k.String() != want {
			t.Errorf("reserved kind %d is named %q, want %q", uint8(k), k, want)
		}
		if _, err := AppendFrame(nil, 0, 0, &Message{Kind: k}); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("reserved kind %d encodes: err = %v, want ErrUnknownKind", uint8(k), err)
		}
		frame, _ := AppendFrame(nil, 0, 0, &Message{Kind: KindInfo})
		frame[3] = byte(k)
		if _, _, _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("reserved kind %d decodes: err = %v, want ErrCorrupt", uint8(k), err)
		}
	}
}

// TestDecodeV1SnapshotFrame pins what became of a snapshot as a v1 peer
// sent it, without incarnation stamp or exemplars: the encoder writes it in
// the one layout, with no schema varint ahead of the zero stamps, and it
// decodes with the absent fields zero, which the reader treats as "unknown
// epoch". The same snapshot behind a schema varint is corrupt.
func TestDecodeV1SnapshotFrame(t *testing.T) {
	in := telemetry.MetricsSnapshot{
		Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 33}},
		Hists: []telemetry.QHistSnapshot{{Name: "lat", SubBits: 4, Count: 2,
			Sum: 700, Idx: []uint16{16, 40}, N: []int64{1, 1}}},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, 0, &Message{Kind: KindObserveResp, From: 3,
		ObserveResp: &ObserveResp{Metrics: &in}}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[HeaderSize:]
	head := columnHead(AskMetrics)
	if !bytes.HasPrefix(body, append(append([]byte(nil), head...), 0, 0)) {
		t.Fatalf("body %x does not start with the column head and two zero stamps", body)
	}
	_, _, m, err := ReadFrame(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	s := *m.ObserveResp.Metrics
	if len(s.Stats) != 1 || len(s.Hists) != 1 || s.StartEpochNS != 0 || s.UptimeNS != 0 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if s.Hists[0].ExIdx != nil || s.Hists[0].ExTrace != nil {
		t.Fatalf("absent exemplars decoded non-nil: %+v", s.Hists[0])
	}
	if !s.SameEpoch(telemetry.MetricsSnapshot{StartEpochNS: 12345}) {
		t.Fatal("zero epoch must compare as unknown-same")
	}
	stamped := append(appendVarint(append([]byte(nil), head...), 1), body[len(head):]...)
	if _, _, _, err := ReadFrame(bytes.NewReader(observeFrame(stamped))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("schema-stamped snapshot: err = %v, want ErrCorrupt", err)
	}
}
