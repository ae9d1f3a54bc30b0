// Package store implements the per-peer data layer of a P-Grid peer.
//
// The paper distinguishes two things a peer keeps at the leaf level:
//
//   - data items it physically hosts (its "local database"), and
//   - the index D ⊆ ADDR × K: references to the peers hosting items whose
//     keys fall under the path the peer is responsible for.
//
// Store models both. Index entries carry a version number so the update
// experiments of Section 5.2 (propagating an update to all replicas, then
// reading with majority voting) can distinguish stale from fresh replicas.
//
// The index is one ordered structure: entries sorted by (Key, Name) in
// bitpath.Compare order. That order is plain string order, so every key
// prefix is one contiguous run and a prefix scan is two seeks and a copy
// (DESIGN.md §12.5).
package store

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

// Entry is one index entry: the peer at Holder hosts an item named Name
// indexed under Key, last updated at Version.
type Entry struct {
	Key     bitpath.Path
	Name    string
	Holder  addr.Addr
	Version uint64
}

// String renders the entry for logs.
func (e Entry) String() string {
	return fmt.Sprintf("%s@%s v%d → %v", e.Name, e.Key, e.Version, e.Holder)
}

// Store is the data layer of one peer. It is safe for concurrent use; the
// concurrent runtime exercises peers from multiple goroutines.
// The zero value is not usable; call New.
type Store struct {
	mu sync.RWMutex
	// chunks is the index in (Key, Name) order, cut into non-empty runs of
	// at most maxChunk slots so an insert moves one run, not the whole
	// index. The store owns the strings in it (see Apply).
	chunks [][]slot
	// sum is the index fingerprint, kept current on every write.
	sum Summary
	// hosted: names of items this peer physically hosts; nil until Host.
	hosted map[string]Entry
}

// maxChunk bounds one run of the index: 512 slots are 36 kB, which an insert
// moves in about a microsecond however large the store.
const maxChunk = 512

// slot is one index entry plus what the store derives from it once, on write.
type slot struct {
	Entry
	rank uint64 // rank(Key): decides most comparisons without touching the strings
	pre  uint64 // FNV-1a state after "key\x00name\x00", the part of term a version overwrite keeps
	term uint64 // the entry's share of Summary.Hash
}

// rank packs the first 64 bits of a key MSB-first, zero-padded. For bit
// paths a smaller rank means a smaller key ('0' is the smallest bit, so
// padding never overtakes a real bit) and an equal rank leaves the order
// to the strings, so ordering by (rank, Key, Name) is ordering by (Key, Name).
func rank(k bitpath.Path) uint64 {
	n := min(len(k), 64)
	var r uint64
	for i := 0; i < n; i++ {
		r = r<<1 | uint64(k[i]&1)
	}
	return r << (64 - uint(n))
}

// pos addresses slot i of chunk c; {len(chunks), 0} is the end of the index.
type pos struct{ c, i int }

// bound is a cut in index order: find returns the first slot not below it.
type bound struct {
	key  bitpath.Path
	name string
	rank uint64 // rank(key), for atEntry
	cut  int8
}

const (
	atEntry    int8 = iota // below: everything before (key, name)
	pastKey                // below: every entry whose key is ≤ key
	pastPrefix             // below: every entry before or under prefix key
)

// below is small enough to inline into find's loops: most steps of a seek
// end on the rank compare.
func (b *bound) below(e *slot) bool {
	if b.cut == atEntry && e.rank != b.rank {
		return e.rank < b.rank
	}
	return b.belowByStrings(e)
}

func (b *bound) belowByStrings(e *slot) bool {
	switch b.cut {
	case pastPrefix:
		k := e.Key
		if len(k) > len(b.key) {
			k = k[:len(b.key)]
		}
		return k <= b.key
	case pastKey:
		return e.Key <= b.key
	}
	if c := strings.Compare(string(e.Key), string(b.key)); c != 0 {
		return c < 0
	}
	return e.Name < b.name
}

// find binary-searches the chunks by their last slot, then the chunk.
func (s *Store) find(b *bound) pos {
	lo, hi := 0, len(s.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ch := s.chunks[m]; b.below(&ch[len(ch)-1]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(s.chunks) {
		return pos{lo, 0}
	}
	ch := s.chunks[lo]
	i, j := 0, len(ch)-1 // the last slot is not below b
	for i < j {
		m := int(uint(i+j) >> 1)
		if b.below(&ch[m]) {
			i = m + 1
		} else {
			j = m
		}
	}
	return pos{lo, i}
}

// lookup returns the slot holding (key, name) and where it is or would be.
func (s *Store) lookup(key bitpath.Path, name string) (*slot, pos) {
	p := s.find(&bound{key: key, name: name, rank: rank(key)})
	if p.c < len(s.chunks) {
		if sl := &s.chunks[p.c][p.i]; sl.Key == key && sl.Name == name {
			return sl, p
		}
	}
	return nil, p
}

// under returns the run of entries whose key has the given prefix.
func (s *Store) under(prefix bitpath.Path) (lo, hi pos) {
	return s.find(&bound{key: prefix, rank: rank(prefix)}), s.find(&bound{key: prefix, cut: pastPrefix})
}

func (s *Store) end() pos { return pos{len(s.chunks), 0} }

// count returns the number of slots in [lo, hi).
func (s *Store) count(lo, hi pos) int {
	n := hi.i - lo.i
	for c := lo.c; c < hi.c; c++ {
		n += len(s.chunks[c])
	}
	return n
}

// each calls f on the slots in [lo, hi), in order.
func (s *Store) each(lo, hi pos, f func(*slot)) {
	for c := lo.c; c <= hi.c && c < len(s.chunks); c++ {
		ch := s.chunks[c]
		from, to := 0, len(ch)
		if c == lo.c {
			from = lo.i
		}
		if c == hi.c {
			to = hi.i
		}
		for i := from; i < to; i++ {
			f(&ch[i])
		}
	}
}

// appendEntries appends [lo, hi) to dst, into one exact-size slice when dst is
// nil; nil when both are empty. It returns their digest too.
func (s *Store) appendEntries(dst []Entry, lo, hi pos) ([]Entry, uint64) {
	n := s.count(lo, hi)
	switch {
	case n == 0:
		return dst, 0
	case dst == nil:
		dst = make([]Entry, 0, n)
	default:
		dst = slices.Grow(dst, n)
	}
	var sum uint64
	s.each(lo, hi, func(sl *slot) { dst, sum = append(dst, sl.Entry), sum+mix(sl.term) })
	return dst, sum
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Host records that this peer physically hosts the item. Hosting is
// independent of index responsibility: in a file-sharing network a peer
// hosts its own files but indexes an unrelated key region.
func (s *Store) Host(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hosted == nil {
		s.hosted = make(map[string]Entry)
	}
	s.hosted[e.Name] = e
}

// Hosted returns the items this peer physically hosts, sorted by (key, name).
func (s *Store) Hosted() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.hosted))
	for _, e := range s.hosted {
		out = append(out, e)
	}
	slices.SortFunc(out, order)
	return out
}

// order compares entries by (key, name), the order every list the store
// hands out is in.
func order(a, b Entry) int {
	if c := bitpath.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// Fold merges scan results — lists in (key, name) order — into one list,
// keeping the fresher version where several hold a (key, name), the earliest
// one's on a tie. Lists out of order (a peer can send anything) come back out
// of order, nothing worse. It keeps the lists it is given and merges them
// once, when asked for the result, into one slice of exactly the result's
// size: a fold of up to eight lists allocates that slice and nothing else.
// The zero Fold is empty.
type Fold struct {
	first [8][]Entry // the first lists added
	n     int        // how many lists were added
	rest  [][]Entry  // the lists past first
}

// Add adds scan to the fold, which keeps it unread until Entries.
func (f *Fold) Add(scan []Entry) {
	switch {
	case len(scan) == 0:
		return
	case f.n < len(f.first):
		f.first[f.n] = scan
	default:
		f.rest = append(f.rest, scan)
	}
	f.n++
}

// Entries returns the merge of every list added so far: the list itself when
// only one was, and otherwise one exact-size slice, which later calls return
// too, until the next Add.
func (f *Fold) Entries() []Entry {
	switch f.n {
	case 0:
		return nil
	case 1:
		return f.first[0]
	}
	// heads copies the lists for a pass of merge to consume, into room while
	// they fit.
	var room [16][]Entry
	heads := func() [][]Entry { return append(append(room[:0], f.first[:min(f.n, len(f.first))]...), f.rest...) }
	out := make([]Entry, merge(heads(), nil))
	merge(heads(), out)
	clear(f.rest) // the merged scans are not to be pinned by the spare room
	*f = Fold{n: 1, rest: f.rest[:0]}
	f.first[0] = out
	return out
}

// merge walks the merge of lists, consuming the slice of them it is given
// (not their entries), stores each entry of the result in out while out has
// room, and returns how many there are. The result's next entry is the least
// of the lists' heads; every list whose head holds that (key, name) gives it
// up, and the fresher version wins, the earlier list's on a tie.
func merge(lists [][]Entry, out []Entry) int {
	n := 0
	for {
		least := -1
		for i, l := range lists {
			if len(l) > 0 && (least < 0 || order(l[0], lists[least][0]) < 0) {
				least = i
			}
		}
		if least < 0 {
			return n
		}
		e := lists[least][0]
		for i, l := range lists[least:] {
			if len(l) > 0 && order(l[0], e) == 0 {
				if l[0].Version > e.Version {
					e = l[0]
				}
				lists[least+i] = l[1:]
			}
		}
		if n < len(out) {
			out[n] = e
		}
		n++
	}
}

// Apply merges an index entry, keeping the highest version per (key, name).
// It reports whether the store changed (entry was new or fresher).
//
// The store owns its strings: a new (key, name) is stored under a private
// copy of both, and a version overwrite keeps the copy it has. An entry
// decoded from a frame shares one backing string with the whole list
// (wire's arena decode); keeping three of 256 scanned entries must not
// keep the other 253 alive.
func (s *Store) Apply(e Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, p := s.lookup(e.Key, e.Name)
	switch {
	case old == nil:
		var own strings.Builder
		own.Grow(len(e.Key) + len(e.Name))
		own.WriteString(string(e.Key))
		own.WriteString(e.Name)
		e.Key, e.Name = bitpath.Path(own.String()[:len(e.Key)]), own.String()[len(e.Key):]
		sl := slot{Entry: e, rank: rank(e.Key), pre: fnvField(fnvField(fnvOffset, e.Key.String()), e.Name)}
		sl.term = sl.hash()
		s.add(p, sl)
	case old.Version >= e.Version:
		return false
	default:
		s.sum.Hash -= old.term
		old.Holder, old.Version = e.Holder, e.Version
		old.term = old.hash()
		s.sum.Hash += old.term
		s.sum.MaxVersion = max(s.sum.MaxVersion, e.Version)
	}
	return true
}

// add places sl at p and in the summary. A chunk that outgrows maxChunk is
// split in half; a slot past the last entry opens a new chunk once the last
// one is full, so a load in key order fills every chunk.
func (s *Store) add(p pos, sl slot) {
	s.sum.Entries++
	s.sum.Hash += sl.term
	s.sum.MaxVersion = max(s.sum.MaxVersion, sl.Version)
	if p.c == len(s.chunks) {
		if p.c == 0 || len(s.chunks[p.c-1]) >= maxChunk {
			s.chunks = append(s.chunks, []slot{sl})
			return
		}
		p = pos{p.c - 1, len(s.chunks[p.c-1])}
	}
	ch := slices.Insert(s.chunks[p.c], p.i, sl)
	if len(ch) > maxChunk {
		half := len(ch) / 2
		s.chunks = slices.Insert(s.chunks, p.c+1, slices.Clone(ch[half:]))
		clear(ch[half:])
		ch = ch[:half]
	}
	s.chunks[p.c] = ch
}

// Get returns the entry for (key, name), if present.
func (s *Store) Get(key bitpath.Path, name string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sl, _ := s.lookup(key, name); sl != nil {
		return sl.Entry, true
	}
	return Entry{}, false
}

// Lookup returns all entries indexed under exactly key, sorted by name.
func (s *Store) Lookup(key bitpath.Path) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out, _ := s.appendEntries(nil, s.find(&bound{key: key, rank: rank(key)}), s.find(&bound{key: key, cut: pastKey}))
	return out
}

// PrefixScan returns all entries whose key has the given prefix, sorted by
// (key, name). With prefix-preserving text keys this implements the paper's
// Section 6 trie/prefix search extension.
func (s *Store) PrefixScan(prefix bitpath.Path) []Entry {
	out, _ := s.AppendPrefixScan(nil, prefix)
	return out
}

// AppendPrefixScan is PrefixScan appending to dst, a buffer the caller reuses.
// It also returns the digest of what it appended (PrefixDigest's, read under
// the same lock).
func (s *Store) AppendPrefixScan(dst []Entry, prefix bitpath.Path) ([]Entry, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo, hi := s.under(prefix)
	return s.appendEntries(dst, lo, hi)
}

// PrefixDigest returns the range digest of the entries under prefix: the
// wrapping sum of their shares of Summary.Hash, each passed through mix. Two
// replicas whose ranges under a prefix hold the same entries at the same
// versions have the same digest, and one that differs in any of them almost
// surely another, so a peer can tell whether a caller already holds its scan
// without sending it. One pass over the range, no copy.
func (s *Store) PrefixDigest(prefix bitpath.Path) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo, hi := s.under(prefix)
	var sum uint64
	s.each(lo, hi, func(sl *slot) { sum += mix(sl.term) })
	return sum
}

// Entries returns every index entry, sorted by (key, name).
func (s *Store) Entries() []Entry {
	return s.PrefixScan(bitpath.Empty)
}

// Len returns the number of index entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sum.Entries
}

// Summary condenses the index into the fixed-size fingerprint the health
// digests carry: entry count, the highest Version over all entries (the
// staleness clock the Section 5.2 update strategies compare), and an
// order-independent hash of the full content, so two replicas of one path
// can be compared for divergence without shipping their indexes.
type Summary struct {
	Entries    int
	MaxVersion uint64
	Hash       uint64
}

// Summary returns the store's index fingerprint. The hash is a wrapping sum
// of per-entry FNV-1a hashes, so it is independent of order — equal indexes
// hash equal, and replicas that diverge in any entry (almost surely) differ
// — and every write adds or subtracts its own term instead of rescanning.
func (s *Store) Summary() Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sum
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvField folds s and a terminating "\x00" into the FNV-1a state h.
func fnvField(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h * fnvPrime
}

// mix is the 64-bit finalizer of MurmurHash3 (fmix64), a bijection that
// spreads every input bit over the whole word. A range digest sums mixed
// terms, not raw ones: two FNV-1a terms that differ only in their last byte
// differ by a small multiple of fnvPrime (versions 1 and 2 of an entry share
// the state before the version's last digit), so raw sums of two crosswise
// stale replicas — one holding A@2 and B@1, the other A@1 and B@2 — collide
// about one time in four.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hash computes the entry's share of Summary.Hash: FNV-1a over
// "key\x00name\x00holder\x00version" with the key as it prints and the
// numbers in decimal. Digests cross the wire, so the bytes are fixed.
func (sl *slot) hash() uint64 {
	var buf [40]byte
	b := strconv.AppendInt(buf[:0], int64(sl.Holder), 10)
	b = append(b, 0)
	b = strconv.AppendUint(b, sl.Version, 10)
	h := sl.pre
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// Delete removes the entry for (key, name) and reports whether it existed.
func (s *Store) Delete(key bitpath.Path, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, p := s.lookup(key, name)
	if sl == nil {
		return false
	}
	s.sum.Entries--
	s.sum.Hash -= sl.term
	stale := sl.Version == s.sum.MaxVersion
	if ch := slices.Delete(s.chunks[p.c], p.i, p.i+1); len(ch) > 0 {
		s.chunks[p.c] = ch
	} else {
		s.chunks = slices.Delete(s.chunks, p.c, p.c+1)
	}
	if stale { // the one write that has to look at what is left
		s.sum.MaxVersion = 0
		s.each(pos{}, s.end(), func(sl *slot) { s.sum.MaxVersion = max(s.sum.MaxVersion, sl.Version) })
	}
	return true
}

// Evict removes and returns every entry whose key does NOT have the given
// prefix, sorted by (key, name). When a peer specializes its path during
// construction, entries outside its narrowed responsibility are handed over
// to the exchange partner (who covers the other half).
func (s *Store) Evict(keep bitpath.Path) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := s.under(keep)
	n := s.count(lo, hi)
	if n == s.sum.Entries {
		return nil
	}
	out := make([]Entry, 0, s.sum.Entries-n)
	kept := make([]slot, 0, n)
	evict := func(sl *slot) { out = append(out, sl.Entry) }
	s.each(pos{}, lo, evict)
	s.each(lo, hi, func(sl *slot) { kept = append(kept, *sl) })
	s.each(hi, s.end(), evict)
	s.chunks, s.sum = nil, Summary{}
	for _, sl := range kept {
		s.add(s.end(), sl)
	}
	return out
}

// CountOutside reports how many entries do NOT lie under keep — the
// entries Evict(keep) would remove — without mutating the store. The
// repair detector uses it to count orphaned entries (data a peer is no
// longer responsible for) before deciding whether to rehome them.
func (s *Store) CountOutside(keep bitpath.Path) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sum.Entries - s.count(s.under(keep))
}

// Clear removes all index entries (not hosted items).
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks, s.sum = nil, Summary{}
}
