package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pgrid/internal/telemetry"
)

// TestKindNumbering pins the wire numbering: kinds are append-only and
// requests stay even, so mixed-version peers agree on every value.
func TestKindNumbering(t *testing.T) {
	if KindError != 14 {
		t.Fatalf("KindError = %d, renumbering breaks old peers", KindError)
	}
	if KindTraces != 16 || KindTracesResp != 17 {
		t.Fatalf("KindTraces = %d/%d, want 16/17", KindTraces, KindTracesResp)
	}
	if KindHealth != 18 || KindHealthResp != 19 {
		t.Fatalf("KindHealth = %d/%d, want 18/19", KindHealth, KindHealthResp)
	}
	if KindHealth%2 != 0 {
		t.Fatal("KindHealth is odd: requests must stay even")
	}
	if KindHealth.String() != "health" || KindHealthResp.String() != "health-resp" {
		t.Fatalf("kind names: %v %v", KindHealth, KindHealthResp)
	}
	if KindMetrics != 24 || KindMetricsResp != 25 {
		t.Fatalf("KindMetrics = %d/%d, want 24/25", KindMetrics, KindMetricsResp)
	}
	if KindMetrics%2 != 0 {
		t.Fatal("KindMetrics is odd: requests must stay even")
	}
	if KindMetrics.String() != "metrics" || KindMetricsResp.String() != "metrics-resp" {
		t.Fatalf("kind names: %v %v", KindMetrics, KindMetricsResp)
	}
	if KindHistory != 26 || KindHistoryResp != 27 {
		t.Fatalf("KindHistory = %d/%d, want 26/27", KindHistory, KindHistoryResp)
	}
	if KindHistory%2 != 0 {
		t.Fatal("KindHistory is odd: requests must stay even")
	}
	if KindHistory.String() != "history" || KindHistoryResp.String() != "history-resp" {
		t.Fatalf("kind names: %v %v", KindHistory, KindHistoryResp)
	}
	if KindRepair != 28 || KindRepairResp != 29 {
		t.Fatalf("KindRepair = %d/%d, want 28/29", KindRepair, KindRepairResp)
	}
	if KindRepair%2 != 0 {
		t.Fatal("KindRepair is odd: requests must stay even")
	}
	if KindRepair.String() != "repair" || KindRepairResp.String() != "repair-resp" {
		t.Fatalf("kind names: %v %v", KindRepair, KindRepairResp)
	}
	// Reserved slots stay unassigned: 12/13 carried the flat stats pair
	// (KindMetrics answers a superset), 15 pairs off KindError, 22/23
	// carried the codec-negotiation hello. No name, no body format in
	// either direction.
	for _, k := range []Kind{12, 13, 15, 22, 23} {
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

// TestDecodeV1SnapshotFrame proves a schema-v1 snapshot frame — produced
// by a peer that predates incarnation stamps and exemplars — decodes
// against the current reader with the absent fields zero, which the reader
// treats as "unknown epoch".
func TestDecodeV1SnapshotFrame(t *testing.T) {
	s := roundTrip(t, &Message{Kind: KindMetricsResp, From: 7,
		MetricsResp: &MetricsResp{Snap: telemetry.MetricsSnapshot{
			Schema: telemetry.MetricsSchemaV1,
			Stats:  []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 33}},
			Hists: []telemetry.QHistSnapshot{{Name: "lat", SubBits: 4, Count: 2,
				Sum: 700, Idx: []uint16{16, 40}, N: []int64{1, 1}}},
		}}}).MetricsResp.Snap
	if s.Schema != telemetry.MetricsSchemaV1 || len(s.Stats) != 1 || len(s.Hists) != 1 {
		t.Fatalf("v1 snapshot mismatch: %+v", s)
	}
	if s.StartEpochNS != 0 || s.UptimeNS != 0 {
		t.Fatalf("absent incarnation stamp decoded non-zero: %+v", s)
	}
	if s.Hists[0].ExIdx != nil || s.Hists[0].ExTrace != nil {
		t.Fatalf("absent exemplars decoded non-nil: %+v", s.Hists[0])
	}
	if !s.SameEpoch(telemetry.MetricsSnapshot{StartEpochNS: 12345}) {
		t.Fatal("zero epoch must compare as unknown-same")
	}
}
