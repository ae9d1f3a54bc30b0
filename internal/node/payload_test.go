package node

import (
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// payloadKinds are the request kinds whose handlers dereference a payload.
var payloadKinds = []wire.Kind{wire.KindQuery, wire.KindExchange, wire.KindApply, wire.KindGet, wire.KindScan}

// TestPayloadlessRequestAnswersError: a frame that carries a request kind
// and a sender but no payload decodes cleanly. The node must
// answer it with KindError — no panic — count it as a served error, and
// keep serving.
func TestPayloadlessRequestAnswersError(t *testing.T) {
	served := func(tel *telemetry.Instruments) int64 {
		for _, s := range tel.Registry().Snapshot() {
			if s.Name == "pgrid_rpc_served_errors_total" {
				return s.Value
			}
		}
		return -1
	}
	check := func(t *testing.T, tr Transport, tel *telemetry.Instruments) {
		t.Helper()
		for _, k := range payloadKinds {
			resp, err := tr.Call(0, &wire.Message{Kind: k, From: 1})
			if err == nil || !strings.Contains(err.Error(), "missing payload for kind "+k.String()) {
				t.Errorf("%v without payload: resp %v, err %v; want a missing-payload error reply", k, resp, err)
			}
		}
		if got := served(tel); got != int64(len(payloadKinds)) {
			t.Errorf("pgrid_rpc_served_errors_total = %d, want %d", got, len(payloadKinds))
		}
		if resp, err := tr.Call(0, &wire.Message{Kind: wire.KindInfo, From: 1}); err != nil || resp.InfoResp == nil {
			t.Errorf("node stopped serving after payload-less frames: resp %v, err %v", resp, err)
		}
	}

	t.Run("local", func(t *testing.T) {
		c := NewCluster(1, smallCfg(), 1)
		tel := telemetry.New(0)
		c.Nodes[0].SetTelemetry(tel)
		check(t, c.Transport, tel)
	})
	t.Run("pool-binary", func(t *testing.T) {
		nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{})
		defer stop()
		tel := telemetry.New(0)
		nodes[0].SetTelemetry(tel)
		check(t, pt, tel)
	})

	// Inside a batch the guard holds per slot.
	c := NewCluster(1, smallCfg(), 1)
	out, err := callBatch(c.Transport, 0, addr.Nil, []wire.Message{{Kind: wire.KindGet}, {Kind: wire.KindInfo}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Kind != wire.KindError || out[1].InfoResp == nil {
		t.Errorf("batch slots = %v / %v, want error then info", out[0].Kind, out[1].Kind)
	}
}
