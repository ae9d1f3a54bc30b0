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

// diffRefSets decodes payload as a link state with both decoders: equal sets
// and the same bytes consumed, or the same ErrCorrupt from both.
func diffRefSets(t *testing.T, payload []byte, buddies bool) {
	t.Helper()
	shared, ref := &bdec{b: payload}, &bdec{b: payload}
	gotL, gotB := shared.refSets(buddies)
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
}

// FuzzRefSetsDifferential holds the shared-array decode of InfoResp.Refs +
// Buddies and ExchangeReq.Refs to the per-level loop it replaced, on
// well-formed link states of every size class, on their truncated and
// bit-flipped tails, and on every suffix of every FuzzReadFrame seed read as
// if a link state began there.
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
		diffRefSets(t, payload, true)
		diffRefSets(t, payload, false)
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
// decodes into the message with its payload, the path, the slice of sets and
// one array for every address — four allocations however deep the path (an
// exchange request has no buddy set and costs the same).
func TestAllocBudgetReadFrameLinkState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	levels, buddies := linkState(12)
	path := bitpath.MustParse("011010010110")
	for _, msg := range []*Message{
		{Kind: KindInfoResp, From: 3, InfoResp: &InfoResp{Addr: 3, Path: path, Refs: levels, Buddies: buddies, Entries: 40}},
		{Kind: KindExchange, From: 3, Exchange: &ExchangeReq{Path: path, Refs: levels, Depth: 1}},
	} {
		frame, err := AppendFrame(nil, 1, 0, msg)
		if err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(frame)
		br := bufio.NewReaderSize(src, len(frame))
		got := testing.AllocsPerRun(200, func() {
			src.Reset(frame)
			br.Reset(src)
			if _, _, m, err := ReadFrame(br); err != nil || m.Kind != msg.Kind {
				t.Fatalf("decode: %v %v", m, err)
			}
		})
		if got > 4 {
			t.Errorf("ReadFrame(%v, 12 levels) = %.1f allocs, want ≤ 4", msg.Kind, got)
		}
	}
}
