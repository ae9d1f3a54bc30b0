package node

import (
	"math/rand"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// Protocol-overhead benchmarks: the same operations as the shared-memory
// core benches, but through the message-passing node — the difference is
// the cost of living behind the wire protocol.

func benchCluster(b *testing.B, n int) *Cluster {
	b.Helper()
	cfg := core.Config{MaxL: 6, RefMax: 4, RecMax: 2, RecFanout: 2}
	c := NewCluster(n, cfg, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200*n; i++ {
		a := rng.Intn(n)
		bb := rng.Intn(n - 1)
		if bb >= a {
			bb++
		}
		c.Nodes[a].Exchange(addr.Addr(bb))
		if i%1000 == 0 && c.AvgPathLen() >= 0.99*6 {
			break
		}
	}
	return c
}

func BenchmarkNodeQuery(b *testing.B) {
	c := benchCluster(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitpath.FromUint(uint64(i), 6)
		c.Nodes[i%256].Query(key)
	}
}

func BenchmarkNodeExchange(b *testing.B) {
	cfg := core.Config{MaxL: 8, RefMax: 4, RecMax: 2, RecFanout: 2}
	c := NewCluster(512, cfg, 3)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Intn(512)
		bb := rng.Intn(511)
		if bb >= a {
			bb++
		}
		c.Nodes[a].Exchange(addr.Addr(bb))
	}
}

func BenchmarkNodeApplyGet(b *testing.B) {
	c := benchCluster(b, 64)
	e := store.Entry{Key: bitpath.MustParse("010101"), Name: "bench", Holder: 1, Version: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Version = uint64(i + 1)
		c.Transport.Call(addr.Addr(i%64), &wire.Message{Kind: wire.KindApply, Apply: &wire.ApplyReq{Entries: []store.Entry{e}}})
		c.Transport.Call(addr.Addr(i%64), &wire.Message{Kind: wire.KindGet, Get: &wire.GetReq{Key: e.Key, Name: "bench"}})
	}
}
