package node

import (
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
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

// TestNegativeLevelOrDepthAnswersError: QueryReq.Level and ExchangeReq.Depth
// travel as signed varints the decoder does not bound. A negative level used
// to reach bitpath.Suffix and take the process down; a negative depth kept
// case-4 recursion below RecMax forever. A read whose key does not end in
// the routed key would be answered for a key the search was not for. All
// three are answered with KindError, change nothing, and the node keeps
// serving.
func TestNegativeLevelOrDepthAnswersError(t *testing.T) {
	check := func(t *testing.T, node *Node, tr Transport) {
		t.Helper()
		before := node.Peer().Snapshot()
		for _, tc := range []struct {
			msg  *wire.Message
			want string
		}{
			{&wire.Message{Kind: wire.KindQuery, From: 1,
				Query: &wire.QueryReq{Key: bitpath.MustParse("01"), Level: -1}}, "negative query level -1"},
			{&wire.Message{Kind: wire.KindExchange, From: 1,
				Exchange: &wire.ExchangeReq{Depth: -1}}, "negative exchange depth -1"},
			{&wire.Message{Kind: wire.KindQuery, From: 1, Query: &wire.QueryReq{Key: bitpath.MustParse("01"),
				Read: &wire.GetReq{Key: bitpath.MustParse("0110"), Name: "f"}}}, "read key 0110 does not end in the routed key 01"},
		} {
			resp, err := tr.Call(0, tc.msg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: resp %v, err %v; want error reply %q", tc.msg.Kind, resp, err, tc.want)
			}
		}
		if after := node.Peer().Snapshot(); after.Path != before.Path || len(after.Refs) != len(before.Refs) {
			t.Errorf("a refused exchange changed the node: path %q → %q", before.Path, after.Path)
		}
		if resp, err := tr.Call(0, &wire.Message{Kind: wire.KindQuery, From: 1,
			Query: &wire.QueryReq{Key: bitpath.MustParse("01")}}); err != nil || !resp.QueryResp.Found {
			t.Errorf("node stopped serving after negative level/depth: resp %v, err %v", resp, err)
		}
	}

	t.Run("local", func(t *testing.T) {
		c := NewCluster(1, smallCfg(), 1)
		check(t, c.Nodes[0], c.Transport)
	})
	t.Run("pool-binary", func(t *testing.T) {
		nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{})
		defer stop()
		check(t, nodes[0], pt)
	})
}
