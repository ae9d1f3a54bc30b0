package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/node"
	"pgrid/internal/sim"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// The direct timings below run after the window, when the community is
// idle: each calls one layer's public function in a loop on this
// goroutine, on inputs taken from the live traffic.

// timed runs f n times and returns nanoseconds and heap allocations per
// call.
func timed(n int, f func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeCalls is the length of the longest direct-timing loops; the others
// are fractions of it. The tests shrink it.
var probeCalls = 200000

// rounds returns how many passes over n inputs make about want calls.
func rounds(n, want int) int {
	if n == 0 {
		return 0
	}
	return max(1, want/n)
}

// frame is one sampled message with its encoding.
type frame struct {
	msg   *wire.Message
	flags uint8
	enc   []byte
}

// codec times wire.AppendFrame and wire.ReadFrame over the frames and
// returns both costs per message. Failures are reported once.
func codec(r *result, frames []frame) (encNS, encAllocs, decNS, decAllocs float64) {
	n := len(frames) * rounds(len(frames), probeCalls/2)
	var buf []byte
	bad := 0
	encNS, encAllocs = timed(n, func(i int) {
		f := &frames[i%len(frames)]
		var err error
		if buf, err = wire.AppendFrame(buf[:0], uint32(i), f.flags, f.msg); err != nil {
			bad++
		}
	})
	var rd bytes.Reader
	decNS, decAllocs = timed(n, func(i int) {
		rd.Reset(frames[i%len(frames)].enc)
		if _, _, _, err := wire.ReadFrame(&rd); err != nil {
			bad++
		}
	})
	if bad > 0 {
		r.problem("codec: %d sampled frames failed to encode or decode", bad)
	}
	return
}

func encodeAll(r *result, msgs []*wire.Message, flags uint8) []frame {
	out := make([]frame, 0, len(msgs))
	for _, m := range msgs {
		enc, err := wire.AppendFrame(nil, 1, flags, m)
		if err != nil {
			r.problem("codec: sampled %v frame does not encode: %v", m.Kind, err)
			continue
		}
		out = append(out, frame{m, flags, enc})
	}
	return out
}

type nopTransport struct{ resp *wire.Message }

func (t nopTransport) Call(addr.Addr, *wire.Message) (*wire.Message, error) { return t.resp, nil }

// probeLayers fills in the per-layer metrics that come from direct calls:
// wire, telemetry, the instrumented transport, Node.Handle, store, core
// and the construction engines. leafRTT is the median leaf round trip of
// the window, in ns.
func probeLayers(r *result, c *community, samples []sampled, leafRTT float64) {
	// wire: every sampled request and response, in the mix the workload
	// produced them.
	var reqs, resps, leafReqs, leafResps []*wire.Message
	for _, s := range samples {
		reqs = append(reqs, s.req)
		resps = append(resps, s.resp)
		if s.req.Kind == wire.KindGet || s.req.Kind == wire.KindApply {
			leafReqs = append(leafReqs, s.req)
			leafResps = append(leafResps, s.resp)
		}
	}
	all := append(encodeAll(r, reqs, 0), encodeAll(r, resps, wire.FlagResponse)...)
	encNS, encAllocs, decNS, decAllocs := codec(r, all)
	r.set("wire.encode_ns_per_msg", encNS)
	r.set("wire.encode_allocs_per_msg", encAllocs)
	r.set("wire.decode_ns_per_msg", decNS)
	r.set("wire.decode_allocs_per_msg", decAllocs)

	// Node.Handle on the sampled requests their node answers by itself.
	handle := func(pick func(sampled) bool) (ns, allocs float64, n int) {
		var in []sampled
		for _, s := range samples {
			if pick(s) {
				in = append(in, s)
			}
		}
		n = len(in) * rounds(len(in), probeCalls/10)
		ns, allocs = timed(n, func(i int) {
			s := in[i%len(in)]
			c.nodes[s.to].Handle(s.req)
		})
		return
	}
	ofKind := func(k wire.Kind) func(sampled) bool {
		return func(s sampled) bool { return s.req.Kind == k }
	}
	getNS, getAllocs, getN := handle(ofKind(wire.KindGet))
	applyNS, applyAllocs, applyN := handle(ofKind(wire.KindApply))
	scanNS, _, _ := handle(ofKind(wire.KindScan))
	localNS, localAllocs, localN := handle(func(s sampled) bool {
		return s.req.Kind == wire.KindQuery && s.resp.QueryResp != nil &&
			s.resp.QueryResp.Found && s.resp.QueryResp.Messages == 0
	})
	r.set("node.handle_get_ns", getNS)
	r.set("node.handle_apply_ns", applyNS)
	r.set("node.handle_scan_us", scanNS/1e3)
	r.set("node.handle_query_local_ns", localNS)
	if n := getN + applyN + localN; n > 0 {
		r.set("node.handle_allocs_per_msg",
			(getAllocs*float64(getN)+applyAllocs*float64(applyN)+localAllocs*float64(localN))/float64(n))
	}

	// What a leaf round trip costs beyond the codec and the handler:
	// pool, syscalls, scheduler, loopback.
	if len(leafReqs) > 0 {
		reqEnc, _, reqDec, _ := codec(r, encodeAll(r, leafReqs, 0))
		respEnc, _, respDec, _ := codec(r, encodeAll(r, leafResps, wire.FlagResponse))
		leafHandle := (getNS*float64(getN) + applyNS*float64(applyN)) / float64(max(getN+applyN, 1))
		r.set("node.pool.residual_us_per_msg", (leafRTT-reqEnc-reqDec-respEnc-respDec-leafHandle)/1e3)
	}

	// telemetry and the instrumented transport, on a bundle of their own
	// configured like a node's.
	tel := telemetry.New(1 << 20)
	tel.EnableExemplars(0.99)
	kind := wire.KindQuery.String()
	calls := probeCalls
	ns, _ := timed(calls, func(int) {
		tel.ServedRPC(kind)
		tel.ServedRPCTraced(kind, 40*time.Microsecond, false, 0)
	})
	r.set("telemetry.served_rpc_ns", ns)
	ns, _ = timed(calls, func(int) { tel.ClientRPC(kind, 150*time.Microsecond, nil) })
	r.set("telemetry.client_rpc_ns", ns)
	ns, _ = timed(calls, func(int) { tel.ObserveQuery(true, 3, 0) })
	r.set("telemetry.observe_query_ns", ns)
	ns, _ = timed(50, func(i int) { c.nodes[i%len(c.nodes)].Telemetry().MetricsSnapshot() })
	r.set("telemetry.snapshot_us", ns/1e3)
	it := node.InstrumentTransportSlow(nopTransport{&wire.Message{Kind: wire.KindQueryResp}}, tel, 0, nil)
	req := &wire.Message{Kind: wire.KindQuery}
	_, allocs := timed(calls, func(int) { it.Call(0, req) })
	r.set("node.instrumented.allocs_per_call", allocs)

	entries := 0
	for _, n := range c.nodes {
		entries += n.Store().Len()
	}
	r.set("store.entries_per_node", float64(entries)/float64(len(c.nodes)))
	probeStore(r, c.nodes[0].Store(), c.nodes[0].Path())
	probeCore(r, c.built.Dir, c.catalog.Entries[:min(2000, len(c.catalog.Entries))])
	r.set("sim.build_s", c.built.Elapsed.Seconds())
	r.set("sim.build_meetings_per_s", float64(c.built.Meetings)/c.built.Elapsed.Seconds())
	r.set("sim.build_exchanges_per_peer", float64(c.built.Exchanges)/float64(communityPeers))
	probeConcurrentBuild(r, sim.Options{N: communityPeers, Config: c.cfg, Seed: fixtureSeed})
}

// probeStore times the data layer on a copy of src, so the writes leave
// the system under test as it was. prefix selects what PrefixScan returns.
func probeStore(r *result, src *store.Store, prefix bitpath.Path) {
	entries := src.Entries()
	if len(entries) == 0 {
		return
	}
	st := store.New()
	for _, e := range entries {
		st.Apply(e)
	}
	n := len(entries) * rounds(len(entries), probeCalls)
	ns, _ := timed(n, func(i int) {
		e := entries[i%len(entries)]
		st.Get(e.Key, e.Name)
	})
	r.set("store.get_ns", ns)
	ns, _ = timed(n, func(i int) {
		e := entries[i%len(entries)]
		e.Version += uint64(1 + i/len(entries)) // always fresher: the write path, not the reject path
		st.Apply(e)
	})
	r.set("store.apply_ns", ns)
	ns, _ = timed(probeCalls/400, func(int) { st.PrefixScan(prefix) })
	r.set("store.prefixscan_us", ns/1e3)
	ns, _ = timed(probeCalls/400, func(int) { st.Summary() })
	r.set("store.summary_us", ns/1e3)
	ns, _ = timed(probeCalls, func(int) { st.Len() })
	r.set("store.len_ns", ns)
}

// probeCore times the simulator's versions of the same algorithms on the
// directory the community was transplanted from: one kernel, two drivers,
// and on one grid core.query_msgs and node.hops_per_query must agree.
func probeCore(r *result, dir *directory.Directory, entries []store.Entry) {
	rng := rand.New(rand.NewSource(r.Seed))
	core.PopulateIndex(dir, entries...)
	var msgs, backs int
	queries := probeCalls / 4
	ns, _ := timed(queries, func(i int) {
		res := core.Query(dir, dir.RandomPeer(rng), entries[i%len(entries)].Key, rng)
		msgs += res.Messages
		backs += res.Backtracks
	})
	r.set("core.query_ns", ns)
	r.set("core.query_msgs", float64(msgs)/float64(queries))
	r.set("core.query_backtracks", float64(backs)/float64(queries))
	updates := probeCalls / 40
	var reached, existing int
	ns, _ = timed(updates, func(i int) {
		e := entries[i%len(entries)]
		e.Version += uint64(1 + i)
		reached += core.Update(dir, e, recBreadth, repetition, rng).Replicas
	})
	for i := 0; i < updates; i++ {
		existing += len(dir.Covering(entries[i%len(entries)].Key))
	}
	r.set("core.update_us", ns/1e3)
	r.set("core.update_reach_ratio", float64(reached)/float64(max(existing, 1)))
	ns, _ = timed(updates, func(i int) {
		e := entries[i%len(entries)]
		core.MajorityRead(dir, e.Key, e.Name, core.MajorityOptions{Margin: 3}, rng)
	})
	r.set("core.majority_read_us", ns/1e3)
}

// probeConcurrentBuild runs the concurrent construction engine once on two
// workers.
func probeConcurrentBuild(r *result, opts sim.Options) {
	opts.Workers = 2
	res, err := sim.BuildConcurrent(opts)
	if err != nil {
		r.problem("concurrent build: %v", err)
		return
	}
	r.set("sim.build_concurrent_meetings_per_s", float64(res.Meetings)/res.Elapsed.Seconds())
}
