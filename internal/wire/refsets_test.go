package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/raceflag"
)

// refSetsPerLevel is the link-state decoder as it was before the shared
// address array: one d.refSet() per level, one slice each. It is the
// reference refSets is held to.
func refSetsPerLevel(d *bdec, buddies bool) (levels []RefSet, buddySet RefSet) {
	if n := d.uvarint(); d.need(n, 1) && n > 0 {
		levels = make([]RefSet, n)
		for i := range levels {
			levels[i] = d.refSet()
		}
	}
	if buddies {
		buddySet = d.refSet()
	}
	return levels, buddySet
}

// linkState builds n levels whose sets run from empty to wide, with addr.Nil
// and the largest address among them, and a buddy set.
func linkState(n int) (levels []RefSet, buddies RefSet) {
	set := func(size, from int) RefSet {
		var r RefSet
		for i := 0; i < size; i++ {
			r.Addrs = append(r.Addrs, addr.Addr((from+i*7919)%(1<<31-1))-1)
		}
		return r
	}
	for i := 0; i < n; i++ {
		levels = append(levels, set([]int{0, 1, 3, 20, 0, 70}[i%6], i*1000003))
	}
	return levels, set(n%5, 1<<31-3)
}

func appendLinkState(b []byte, levels []RefSet, buddies RefSet) []byte {
	b = appendUvarint(b, uint64(len(levels)))
	for _, r := range levels {
		b = appendRefSet(b, r)
	}
	return appendRefSet(b, buddies)
}

// diffRefSets decodes payload as a link state with both decoders, the shared
// array cut from room (nil for none): equal sets and the same bytes consumed,
// or the same ErrCorrupt from both.
func diffRefSets(t *testing.T, payload []byte, buddies bool, room *LinkRoom) {
	t.Helper()
	shared, ref := &bdec{b: payload}, &bdec{b: payload}
	gotL, gotB := shared.refSets(buddies, room)
	wantL, wantB := refSetsPerLevel(ref, buddies)
	if (shared.err == nil) != (ref.err == nil) || (ref.err != nil && shared.err.Error() != ref.err.Error()) {
		t.Fatalf("buddies=%v: shared-array decode err = %v, per-level decode err = %v (payload %x)", buddies, shared.err, ref.err, payload)
	}
	if ref.err != nil {
		if !errors.Is(shared.err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", shared.err)
		}
		return
	}
	if !reflect.DeepEqual(gotL, wantL) || !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("buddies=%v: shared-array decode = %v %v, per-level decode = %v %v (payload %x)", buddies, gotL, gotB, wantL, wantB, payload)
	}
	if shared.off != ref.off {
		t.Fatalf("buddies=%v: shared-array decode consumed %d bytes, per-level decode %d", buddies, shared.off, ref.off)
	}
	// The sets share one array; appending to one must not reach the next.
	for i := range gotL {
		if s := gotL[i].Addrs; cap(s) != len(s) {
			t.Fatalf("level %d has capacity %d beyond its %d addresses", i+1, cap(s), len(s))
		}
	}
	if cap(gotL) != len(gotL) {
		t.Fatalf("the %d levels have capacity %d", len(gotL), cap(gotL))
	}
}

// FuzzRefSetsDifferential holds the shared-array decode of InfoResp.Refs +
// Buddies and ExchangeReq.Refs, with and without a LinkRoom to cut them from,
// to the per-level loop it replaced, on well-formed link states of every size
// class (inside the room and past it), on their truncated and bit-flipped
// tails, and on every suffix of every FuzzReadFrame seed read as if a link
// state began there.
func FuzzRefSetsDifferential(f *testing.F) {
	for _, n := range []int{0, 1, 6, 13, 300} {
		levels, buddies := linkState(n)
		state := appendLinkState(nil, levels, buddies)
		f.Add(state)
		if n > 13 {
			continue // the small states cover every tail shape
		}
		for cut := 0; cut < len(state) && cut < 300; cut++ {
			f.Add(state[:len(state)-cut-1])
		}
		for i := 0; i < len(state) && i < 300; i++ {
			flipped := bytes.Clone(state)
			flipped[i] ^= 0x8f // counts, continuation bits, address range
			f.Add(flipped)
		}
	}
	for _, frame := range readFrameSeeds(f) {
		for off := HeaderSize; off < len(frame) && off < HeaderSize+256; off++ {
			f.Add(frame[off:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, room := range []*LinkRoom{nil, new(LinkRoom)} {
			diffRefSets(t, payload, true, room)
			diffRefSets(t, payload, false, room)
		}
	})
}

// toSetByAdd is RefSet.ToSet as it was: addr.Set.Add per address, a scan of
// the set each — quadratic in the list. It is the reference ToSet is held to.
func toSetByAdd(r RefSet) addr.Set {
	var s addr.Set
	for _, a := range r.Addrs {
		s.Add(a)
	}
	return s
}

// TestToSetMatchesAddLoop: on random lists of every length around the switch
// from scan to map, drawn from small ranges so duplicates abound and with
// addr.Nil among them, ToSet keeps what the Add loop keeps, in its order —
// the first occurrence of each address, Nil dropped — since later draws
// shuffle that order.
func TestToSetMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		n := rng.Intn(100)
		r := RefSet{Addrs: make([]addr.Addr, n)}
		span := 1 + rng.Intn(2*n+1)
		for j := range r.Addrs {
			r.Addrs[j] = addr.Addr(rng.Intn(span)) - 1
		}
		if got, want := r.ToSet().Slice(), toSetByAdd(r).Slice(); !slices.Equal(got, want) {
			t.Fatalf("ToSet(%v) = %v, the Add loop gives %v", r.Addrs, got, want)
		}
	}
}

// TestToSetLinearOnHugeLevel: a 100 000-address level — what a 300 kB frame
// can hold, and what the Add loop took 3.3 s for — goes through ToSet well
// within 50 ms.
func TestToSetLinearOnHugeLevel(t *testing.T) {
	r := RefSet{Addrs: make([]addr.Addr, 100000)}
	for i := range r.Addrs {
		r.Addrs[i] = addr.Addr(i * 7919 % 1000003)
	}
	start := time.Now()
	s := r.ToSet()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("ToSet of a 100 000-address level took %v", d)
	}
	if s.Len() != len(r.Addrs) {
		t.Errorf("ToSet kept %d of %d distinct addresses", s.Len(), len(r.Addrs))
	}
}

// TestAllocBudgetReadFrameLinkState: a frame carrying a peer's link state
// decodes into one object — the message with its payload and the LinkRoom the
// sets and their one address array are cut from — when the path has at most 8
// bits and the state fits the room. Past it, the path, the slice of sets and
// the address array are each their own: four allocations however deep the path
// (an exchange request has no buddy set and costs the same). Either way the
// answer is what was sent.
func TestAllocBudgetReadFrameLinkState(t *testing.T) {
	full := func(levels int) (refs []RefSet, buddies RefSet) {
		for i := 0; i < levels; i++ {
			refs = append(refs, RefSet{Addrs: []addr.Addr{addr.Addr(i), addr.Addr(100 + i), addr.Addr(200 + i), 300, 400}})
		}
		return refs, RefSet{Addrs: []addr.Addr{7, 8, 9}}
	}
	fitL, fitB := full(8) // 43 addresses: pgridnode's default shape
	wideL, wideB := full(8)
	wideB.Addrs = make([]addr.Addr, 30) // 70 addresses: past the room
	deepL, deepB := linkState(12)
	short, long := bitpath.MustParse("01101001"), bitpath.MustParse("011010010110")
	for _, tc := range []struct {
		name   string
		path   bitpath.Path
		levels []RefSet
		bud    RefSet
		budget float64
	}{
		{"in the room", short, fitL, fitB, 1},
		{"past the room's addresses", short, wideL, wideB, 2},
		{"12 levels", long, deepL, deepB, 4},
	} {
		for _, msg := range []*Message{
			{Kind: KindInfoResp, From: 3, InfoResp: &InfoResp{Addr: 3, Path: tc.path, Refs: tc.levels, Buddies: tc.bud, Entries: 40}},
			{Kind: KindExchange, From: 3, Exchange: &ExchangeReq{Path: tc.path, Refs: tc.levels, Depth: 1}},
		} {
			frame, err := AppendFrame(nil, 1, 0, msg)
			if err != nil {
				t.Fatal(err)
			}
			src := bytes.NewReader(frame)
			br := bufio.NewReaderSize(src, len(frame))
			if _, _, m, err := ReadFrame(br); err != nil || !reflect.DeepEqual(m, msg) {
				t.Fatalf("%s: ReadFrame(%v) = %+v, %v; sent %+v", tc.name, msg.Kind, m, err, msg)
			}
			if raceflag.Enabled {
				continue // the race detector allocates
			}
			got := testing.AllocsPerRun(200, func() {
				src.Reset(frame)
				br.Reset(src)
				if _, _, m, err := ReadFrame(br); err != nil || m.Kind != msg.Kind {
					t.Fatalf("decode: %v %v", m, err)
				}
			})
			if got > tc.budget {
				t.Errorf("%s: ReadFrame(%v) = %.1f allocs, want ≤ %.0f", tc.name, msg.Kind, got, tc.budget)
			}
		}
	}
}

// TestAllocBudgetShortPaths: every path of up to 8 bits unpacks to the string
// the bit loop builds, cut from shortPaths for no allocation; a 9-bit path is
// a string of its own.
func TestAllocBudgetShortPaths(t *testing.T) {
	if len(shortPaths) != 3586 {
		t.Errorf("shortPaths holds %d bytes, want 3586", len(shortPaths))
	}
	var all []bitpath.Path
	for n := 0; n <= 9; n++ {
		all = append(all, bitpath.All(n)...)
	}
	for _, p := range all {
		packed := appendPath(nil, p)
		d := &bdec{b: packed}
		nbits, nbytes := d.pathHead()
		src := packed[d.off : d.off+nbytes]
		if got := unpack(src, nbits); got != p {
			t.Fatalf("unpack(%s) = %q", p, got)
		}
		want := 0.0
		if nbits > 8 {
			want = 1
		}
		if raceflag.Enabled {
			continue
		}
		if got := testing.AllocsPerRun(20, func() { unpack(src, nbits) }); got != want {
			t.Fatalf("unpack(%s) = %.1f allocs, want %.0f", p, got, want)
		}
	}
}
