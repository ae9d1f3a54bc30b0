package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/raceflag"
	"pgrid/internal/store"
)

// gridDigest is an FNV-1a digest over every peer's address, path, per-level
// references and buddies, each list in stored order: two grids digest alike
// only if every random draw of their builds fell the same way.
func gridDigest(d *directory.Directory) uint64 {
	h := fnv.New64a()
	var word [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		h.Write(word[:])
	}
	for _, p := range d.All() {
		s := p.Snapshot()
		put(int(s.Addr))
		put(s.Path.Len())
		h.Write([]byte(s.Path))
		for _, refs := range s.Refs {
			put(refs.Len())
			for _, r := range refs.Slice() {
				put(int(r))
			}
		}
		put(s.Buddies.Len())
		for _, b := range s.Buddies.Slice() {
			put(int(b))
		}
	}
	return h.Sum64()
}

// TestBuildTrajectoryPinned holds the sequential engine to recorded
// constants: meetings, exchanges and the digest of the grid a seed builds,
// and the messages and reached replicas of a query / update / majority-read
// tail on that grid. The constants were recorded before the meeting kernel
// took a scratch; a change that adds, drops or reorders one random draw —
// in the kernel, the set operations under it or the search and update
// loops — fails here, not in a table compared by hand.
func TestBuildTrajectoryPinned(t *testing.T) {
	type pin struct {
		meetings, exchanges int64
		grid                uint64
		queryMsgs           int
		queryFound          int
		updateMsgs          int
		updateReached       int
		readMsgs            int
		readQueries         int
		readFound           int
	}
	shapes := []struct {
		name string
		n    int
		cfg  core.Config
		want map[int64]pin
	}{
		{"N1000/maxl6/refmax3/fanout2", 1000, core.Config{MaxL: 6, RefMax: 3, RecMax: 2, RecFanout: 2}, map[int64]pin{
			1: {meetings: 3473, exchanges: 39460, grid: 14281599122281328015, queryMsgs: 335, queryFound: 55, updateMsgs: 213, updateReached: 49, readMsgs: 4417, readQueries: 3025, readFound: 34},
			7: {meetings: 3450, exchanges: 40126, grid: 973556118645282223, queryMsgs: 314, queryFound: 81, updateMsgs: 255, updateReached: 68, readMsgs: 4810, readQueries: 2920, readFound: 38},
		}},
		{"N2000/maxl8/refmax20/fanout0", 2000, core.Config{MaxL: 8, RefMax: 20, RecMax: 2, RecFanout: 0}, map[int64]pin{
			1: {meetings: 6249, exchanges: 5605562, grid: 16855025354349719137, queryMsgs: 108212, queryFound: 162, updateMsgs: 1801, updateReached: 108, readMsgs: 2499180, readQueries: 2086, readFound: 41},
			7: {meetings: 6092, exchanges: 5390601, grid: 9364262173777988869, queryMsgs: 24388, queryFound: 195, updateMsgs: 1759, updateReached: 135, readMsgs: 458785, readQueries: 1575, readFound: 49},
		}},
	}
	for _, sh := range shapes {
		// Fanout 0 forwards to whole levels: 5.6 M exchanges a build, ten
		// seconds plain and over ten minutes under the race detector, which
		// has nothing to find in a single goroutine.
		if sh.cfg.RecFanout == 0 && (raceflag.Enabled || testing.Short()) {
			continue
		}
		for _, seed := range []int64{1, 7} {
			res, err := Build(Options{N: sh.n, Config: sh.cfg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got := pin{meetings: res.Meetings, exchanges: res.Exchanges, grid: gridDigest(res.Dir)}

			d := res.Dir
			rng := rand.New(rand.NewSource(seed + 1000))
			d.SampleOnline(rng, 0.3)
			keys := make([]bitpath.Path, 50)
			for i := range keys {
				keys[i] = bitpath.Random(rng, sh.cfg.MaxL)
			}
			for i := 0; i < 200; i++ {
				start := d.RandomOnlinePeer(rng)
				q := core.Query(d, start, keys[i%len(keys)], rng)
				got.queryMsgs += q.Messages
				if q.Found {
					got.queryFound++
				}
			}
			for i, key := range keys {
				u := core.Update(d, store.Entry{Key: key, Name: "f", Holder: 1, Version: uint64(i + 1)}, 2, 2, rng)
				got.updateMsgs += u.Messages
				got.updateReached += u.Replicas
			}
			for _, key := range keys {
				r := core.MajorityRead(d, key, "f", core.MajorityOptions{}, rng)
				got.readMsgs += r.Messages
				got.readQueries += r.Queries
				if r.Found {
					got.readFound++
				}
			}
			// The tail changed no link, so the grid still digests alike.
			if after := gridDigest(d); after != got.grid {
				t.Errorf("%s seed %d: the read/update tail changed the grid digest", sh.name, seed)
			}
			if want := sh.want[seed]; got != want {
				t.Errorf("%s seed %d:\n got %+v\nwant %+v", sh.name, seed, got, want)
			}
		}
	}
}
