package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/raceflag"
	"pgrid/internal/store"
)

// entriesPerEntry is the entry-list decoder as it was before the arena:
// one d.entry() per element, two strings each. It is the reference the
// arena decode is held to.
func entriesPerEntry(d *bdec) []store.Entry {
	n := d.uvarint()
	if !d.need(n, 2) || n == 0 {
		return nil
	}
	out := make([]store.Entry, n)
	for i := range out {
		out[i] = d.entry()
	}
	return out
}

// entryList builds n entries that differ in every field: key lengths run
// from empty past the 64-bit stack buffer to wide, names from empty up,
// holders include addr.Nil.
func entryList(n int) []store.Entry {
	es := make([]store.Entry, n)
	for i := range es {
		bits := []int{0, 1, 7, 8, 9, 63, 64, 65, 130}[i%9]
		name := ""
		if i%5 != 0 {
			name = fmt.Sprint(strings.Repeat("n", i%4), i)
		}
		es[i] = store.Entry{
			Key:     bitpath.Path(strings.Repeat("01101", bits/5+1)[:bits]),
			Name:    name,
			Holder:  addr.Addr(i%50 - 1),
			Version: uint64(i) * 0x9e3779b97f4a7c15,
		}
	}
	return es
}

// diffEntries decodes payload as an entry list with both decoders: equal
// entries and the same bytes consumed, or the same ErrCorrupt from both.
func diffEntries(t *testing.T, payload []byte) {
	t.Helper()
	arena, ref := &bdec{b: payload}, &bdec{b: payload}
	got, want := arena.entries(), entriesPerEntry(ref)
	if (arena.err == nil) != (ref.err == nil) || (ref.err != nil && arena.err.Error() != ref.err.Error()) {
		t.Fatalf("arena decode err = %v, per-entry decode err = %v (payload %x)", arena.err, ref.err, payload)
	}
	if ref.err != nil {
		if !errors.Is(arena.err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", arena.err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arena decode = %v, per-entry decode = %v (payload %x)", got, want, payload)
	}
	if arena.off != ref.off {
		t.Fatalf("arena decode consumed %d bytes, per-entry decode %d", arena.off, ref.off)
	}
}

// FuzzEntriesDifferential holds the arena decode of ScanResp.Entries and
// ExchangeResp.Handover to the per-entry loop it replaced, on well-formed
// lists of every size class, on their truncated and bit-flipped tails, and
// on every suffix of every FuzzReadFrame seed read as if a list began there.
func FuzzEntriesDifferential(f *testing.F) {
	for _, n := range []int{0, 1, 64, 65, 2000} {
		list := appendEntries(nil, entryList(n))
		f.Add(list)
		if n > 65 {
			continue // the small lists cover every tail shape
		}
		for cut := 0; cut < len(list) && cut < 400; cut++ {
			f.Add(list[:len(list)-cut-1])
		}
		for i := 0; i < len(list) && i < 400; i++ {
			flipped := bytes.Clone(list)
			flipped[i] ^= 0x0f // pad bits, lengths, counts
			f.Add(flipped)
		}
	}
	for _, frame := range readFrameSeeds(f) {
		for off := HeaderSize; off < len(frame) && off < HeaderSize+256; off++ {
			f.Add(frame[off:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) { diffEntries(t, payload) })
}

// TestAllocBudgetReadFrameEntries: a frame carrying an entry list decodes
// into the Message with its payload struct, the entry slice and one arena for
// every key and name — three allocations whatever the list length.
func TestAllocBudgetReadFrameEntries(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	es := entryList(256)
	for _, msg := range []*Message{
		{Kind: KindScanResp, From: 3, ScanResp: &ScanResp{Entries: es}},
		{Kind: KindExchangeResp, From: 3, ExchangeResp: &ExchangeResp{Handover: es}},
	} {
		frame, err := AppendFrame(nil, 1, FlagResponse, msg)
		if err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(frame)
		br := bufio.NewReaderSize(src, len(frame))
		got := testing.AllocsPerRun(100, func() {
			src.Reset(frame)
			br.Reset(src)
			if _, _, m, err := ReadFrame(br); err != nil || m.Kind != msg.Kind {
				t.Fatalf("decode: %v %v", m, err)
			}
		})
		if got > 3 {
			t.Errorf("ReadFrame(%v, 256 entries) = %.1f allocs, want ≤ 3", msg.Kind, got)
		}
	}
}

// TestApplyDoesNotPinDecodedList: decoded entries share one backing string;
// a store that keeps one of them must not keep that string alive.
func TestApplyDoesNotPinDecodedList(t *testing.T) {
	frame, err := AppendFrame(nil, 1, FlagResponse,
		&Message{Kind: KindScanResp, ScanResp: &ScanResp{Entries: entryList(512)}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	es := m.ScanResp.Entries
	first, last := es[1], es[len(es)-1] // es[0] is all empty strings
	lo := uintptr(unsafe.Pointer(unsafe.StringData(string(first.Key))))
	hi := uintptr(unsafe.Pointer(unsafe.StringData(last.Name))) + uintptr(len(last.Name))
	inArena := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
	picked := es[301]
	if !inArena(string(picked.Key)) || !inArena(picked.Name) {
		t.Fatalf("decoded entry %v does not sit in the list's arena: the test no longer tests anything", picked)
	}
	st := store.New()
	st.Apply(picked)
	kept, ok := st.Get(picked.Key, picked.Name)
	if !ok || kept != picked {
		t.Fatalf("Get after Apply = %v, %v", kept, ok)
	}
	if inArena(string(kept.Key)) || inArena(kept.Name) {
		t.Errorf("the stored entry aliases the decoded list's backing string")
	}
	// A version overwrite keeps the store's own strings too.
	picked.Version++
	st.Apply(picked)
	if kept, _ := st.Get(picked.Key, picked.Name); inArena(string(kept.Key)) || inArena(kept.Name) {
		t.Errorf("after an overwrite the stored entry aliases the decoded list's backing string")
	}
}
