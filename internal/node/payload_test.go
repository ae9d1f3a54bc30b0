package node

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// payloadKinds are the request kinds whose handlers dereference a payload.
var payloadKinds = []wire.Kind{wire.KindQuery, wire.KindExchange, wire.KindApply, wire.KindGet, wire.KindScan, wire.KindObserve}

// TestPayloadlessRequestAnswersError: a frame that carries a request kind
// and a sender but no payload decodes cleanly. The node must
// answer it with KindError — no panic — count it as a served error, and
// keep serving.
func TestPayloadlessRequestAnswersError(t *testing.T) {
	served := func(tel *telemetry.Instruments) int64 {
		for _, s := range tel.MetricsSnapshot().Stats {
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

// levelOf is a snapshot level of k distinct addresses.
func levelOf(k int) wire.RefSet {
	rs := wire.RefSet{Addrs: make([]addr.Addr, k)}
	for i := range rs.Addrs {
		rs.Addrs[i] = addr.Addr(i + 10)
	}
	return rs
}

// hugeLevelFrame is an exchange whose snapshot has one level of 100 000
// distinct addresses: some 300 kB, well inside MaxFrameSize.
func hugeLevelFrame(t testing.TB) []byte {
	frame, err := wire.AppendFrame(nil, 7, 0, &wire.Message{Kind: wire.KindExchange, From: 1,
		Exchange: &wire.ExchangeReq{Path: bitpath.MustParse("1"), Refs: []wire.RefSet{levelOf(100_000)}}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestOversizedExchangeSnapshotAnswersError: the codec admits any snapshot
// that fits a frame, and the Fig. 3 decision de-duplicates the levels it
// reads in quadratic time under the state lock and the rng lock every routed
// hop takes: one level of 100 000 addresses held a node for seconds per
// read. The gate refuses a snapshot with more levels than its path has bits
// or more references at a level than RefMax, before any of it is read; a
// snapshot at the bound is served.
func TestOversizedExchangeSnapshotAnswersError(t *testing.T) {
	c := NewCluster(2, smallCfg(), 1)
	n := c.Nodes[0]
	if err := n.Exchange(1); err != nil { // path "0", one reference
		t.Fatal(err)
	}
	before := n.Peer().Snapshot()

	_, _, huge, err := wire.ReadFrame(bytes.NewReader(hugeLevelFrame(t)))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp := n.Handle(huge)
	if took := time.Since(start); resp.Kind != wire.KindError || took > 50*time.Millisecond {
		t.Errorf("100 000-address level: answered %v in %v, want KindError within 50ms", resp.Kind, took)
	}

	refmax := smallCfg().RefMax
	for _, tc := range []struct {
		req  wire.ExchangeReq
		want string // "" = served
	}{
		{wire.ExchangeReq{Path: "1", Refs: []wire.RefSet{levelOf(refmax + 1)}}, "4 references at level 1, refmax is 3"},
		{wire.ExchangeReq{Path: "10", Refs: []wire.RefSet{levelOf(1), levelOf(refmax + 2)}}, "5 references at level 2, refmax is 3"},
		{wire.ExchangeReq{Path: "1", Refs: []wire.RefSet{levelOf(1), levelOf(1)}}, "2 reference levels for a path of length 1"},
		{wire.ExchangeReq{Refs: []wire.RefSet{{}}}, "1 reference levels for a path of length 0"},
		{wire.ExchangeReq{Path: "1", Refs: []wire.RefSet{levelOf(refmax)}}, ""},
	} {
		req := tc.req
		resp := n.Handle(&wire.Message{Kind: wire.KindExchange, From: 1, Exchange: &req})
		switch {
		case tc.want == "" && resp.ExchangeResp == nil:
			t.Errorf("snapshot at the bound refused: %v %q", resp.Kind, resp.Error)
		case tc.want != "" && (resp.Kind != wire.KindError || !strings.Contains(resp.Error, tc.want)):
			t.Errorf("answered %v %q, want an error naming %q", resp.Kind, resp.Error, tc.want)
		case tc.want != "":
			if after := n.Peer().Snapshot(); after.Path != before.Path || fmt.Sprint(after.Refs) != fmt.Sprint(before.Refs) {
				t.Errorf("a refused exchange changed the node: %v → %v", before, after)
			}
		}
	}
}

// TestApplyExchangeTakesAtMostTwoLevels: Fig. 3 changes the common level and
// at most the one below it. A reply naming up to two levels is installed
// whole, whatever order the map hands them out in; one naming three is no
// decision and changes nothing.
func TestApplyExchangeTakesAtMostTwoLevels(t *testing.T) {
	set := func(a ...addr.Addr) wire.RefSet { return wire.RefSet{Addrs: a} }
	for _, tc := range []struct {
		name    string
		setRefs map[int]wire.RefSet
		want    string // levels 1–3 afterwards
	}{
		{"no level", map[int]wire.RefSet{}, "[[1] [2] [3]]"},
		{"one level", map[int]wire.RefSet{2: set(7, 8)}, "[[1] [7 8] [3]]"},
		{"two levels", map[int]wire.RefSet{3: set(9), 1: set(5, 6)}, "[[5 6] [2] [9]]"},
		{"two levels, one outside the path", map[int]wire.RefSet{4: set(9), 2: set(5)}, "[[1] [5] [3]]"},
		{"three levels", map[int]wire.RefSet{1: set(5), 2: set(6), 3: set(7)}, "[[1] [2] [3]]"},
	} {
		for run := 0; run < 100; run++ { // map order varies from run to run
			n := NewCluster(1, smallCfg(), 1).Nodes[0]
			err := n.Peer().Restore(peer.Snapshot{Addr: 0, Path: "010", Online: true,
				Refs: []addr.Set{addr.NewSet(1), addr.NewSet(2), addr.NewSet(3)}})
			if err != nil {
				t.Fatal(err)
			}
			n.applyExchange(1, &wire.ExchangeResp{BasePath: "010", SetRefs: tc.setRefs, AddBuddy: true}, 0)
			s := n.Peer().Snapshot()
			levels := make([][]int32, len(s.Refs))
			for i, refs := range s.Refs {
				for _, a := range refs.Slice() {
					levels[i] = append(levels[i], int32(a))
				}
			}
			if got := fmt.Sprint(levels); got != tc.want {
				t.Fatalf("%s, run %d: levels %s, want %s", tc.name, run, got, tc.want)
			}
			if dropped := len(tc.setRefs) > 2; s.Buddies.Contains(1) == dropped {
				t.Fatalf("%s, run %d: buddies %v — a dropped reply installs nothing, a taken one all of it", tc.name, run, s.Buddies)
			}
		}
	}
}
