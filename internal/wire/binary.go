// Binary frame codec — the one encoding of the wire protocol.
//
// A hand-rolled frame format with a fixed 13-byte header and
// varint-packed payloads — no reflection and no per-frame type
// descriptors, which is what made encoding/gob several times slower on
// this protocol (DESIGN.md §12.4) — encoded into pooled buffers so a
// request/response round trip allocates close to nothing on the encode
// side.
//
// Frame layout (all multi-byte header fields big-endian):
//
//	offset  size  field
//	0       2     magic 0x50 0x47 ("PG")
//	2       1     codec version (BinaryVersion)
//	3       1     message kind
//	4       1     flags (FlagResponse)
//	5       4     sequence id (multiplexing: responses echo the request's)
//	9       4     payload length N
//	13      N     payload
//
// The payload is the message envelope (From as a zigzag varint) followed by
// the kind-specific body: bools are one byte (the one that opens a query or
// its response is a flags byte, whose second bit announces the read trailer
// behind the payload; an info request may close with a rider byte and an
// info answer's presence byte names the rider's answer behind its payload),
// counts and lengths are uvarints, signed integers are
// zigzag varints, high-entropy 64-bit values (trace ids, hashes, versions)
// are fixed 8-byte big-endian, strings are length-prefixed bytes, and bit
// paths are bit-packed MSB-first with zero padding. Decoding is strict: a
// wrong magic or version, unknown kinds, non-zero pad bits, counts that
// exceed the remaining payload, and trailing garbage all surface ErrCorrupt —
// never a panic and never an oversized allocation. There is no negotiation:
// the version byte on every frame is the version check, and a stream that
// does not open with the magic is corrupt.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// BinaryVersion is the current binary codec version. Parsing a frame of a
// different version is refused as corrupt, so a format change must bump it
// and can never be silent.
const BinaryVersion = 1

// HeaderSize is the fixed binary frame header length in bytes.
const HeaderSize = 13

// FlagResponse is the frame flag bit marking a frame that answers the
// sequence id it carries.
const FlagResponse uint8 = 1 << 0

const (
	magic0 = 0x50 // 'P'
	magic1 = 0x47 // 'G'
)

// ErrUnknownKind reports an encode request for a kind this codec version
// has no body format for. (Decoding an unknown kind surfaces ErrCorrupt:
// on the wire it is indistinguishable from a flipped kind byte.)
var ErrUnknownKind = errors.New("wire: unknown message kind")

// bufPool recycles encode buffers and frame payload scratch. Oversized
// buffers (a huge scan response, say) are dropped instead of pinned.
var bufPool = sync.Pool{New: func() any { return new(poolBuf) }}

type poolBuf struct{ b []byte }

const maxPooledBuf = 64 << 10

func putBuf(pb *poolBuf) {
	if cap(pb.b) <= maxPooledBuf {
		pb.b = pb.b[:0]
		bufPool.Put(pb)
	}
}

// AppendFrame appends one complete binary frame carrying m to dst and
// returns the extended slice. The caller owns dst; nothing is retained.
func AppendFrame(dst []byte, seq uint32, flags uint8, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, magic0, magic1, BinaryVersion, byte(m.Kind), flags,
		0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[start+5:start+9], seq)
	dst, err := appendMessageBody(dst, m)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - HeaderSize
	if n > MaxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start+9:start+13], uint32(n))
	return dst, nil
}

// WriteFrame encodes m into a pooled buffer and writes it to w as one
// contiguous frame (a single Write call, so concurrent writers serialized
// by a mutex never interleave partial frames).
func WriteFrame(w io.Writer, seq uint32, flags uint8, m *Message) error {
	pb := bufPool.Get().(*poolBuf)
	defer putBuf(pb)
	b, err := AppendFrame(pb.b[:0], seq, flags, m)
	if err != nil {
		return err
	}
	pb.b = b
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one binary frame from r. io.EOF before any header byte
// is returned verbatim (clean close); any malformed header or payload is
// ErrCorrupt. The returned message shares nothing with internal buffers.
//
// Handed a *bufio.Reader — which the server and the pool both do — the
// header is parsed in place in the reader's buffer; any other reader pays
// one small allocation for it (a local array escapes through the io.Reader
// interface).
func ReadFrame(r io.Reader) (seq uint32, flags uint8, m *Message, err error) {
	br, buffered := r.(*bufio.Reader)
	var hdr []byte
	if buffered {
		hdr, err = br.Peek(HeaderSize)
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
	} else {
		hdr = make([]byte, HeaderSize)
		_, err = io.ReadFull(r, hdr)
	}
	if err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	m0, m1, version := hdr[0], hdr[1], hdr[2]
	kind := Kind(hdr[3])
	flags = hdr[4]
	seq = binary.BigEndian.Uint32(hdr[5:9])
	n := binary.BigEndian.Uint32(hdr[9:13])
	if buffered {
		br.Discard(HeaderSize) // cannot fail: Peek buffered these bytes
	}
	if m0 != magic0 || m1 != magic1 {
		return 0, 0, nil, fmt.Errorf("%w: bad frame magic %02x%02x", ErrCorrupt, m0, m1)
	}
	if version != BinaryVersion {
		return 0, 0, nil, fmt.Errorf("%w: unsupported binary codec version %d", ErrCorrupt, version)
	}
	if n > MaxFrameSize {
		return 0, 0, nil, ErrFrameTooLarge
	}
	pb := bufPool.Get().(*poolBuf)
	defer putBuf(pb)
	if cap(pb.b) < int(n) {
		pb.b = make([]byte, n)
	}
	pb.b = pb.b[:n]
	if _, err := io.ReadFull(r, pb.b); err != nil {
		if err == io.EOF {
			// ReadFull reports a stream that ends before the first of the
			// n > 0 bytes the header promised as a plain EOF; it is a torn
			// frame all the same.
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	m, err = decodeMessageBody(kind, pb.b)
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, flags, m, nil
}

// --- encode ----------------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendU64(b []byte, v uint64) []byte     { return binary.BigEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// The query pair's presence byte is a flags byte: flagPresent is the bool
// every other payload opens with, flagTrailer says the read rides along —
// the (Key, Name) asked for closes a QueryReq, the entry found closes a
// QueryResp. Without the trailer the bytes are what they always were.
const (
	flagPresent = 1 << 0
	flagTrailer = 1 << 1
)

// The info pair's rider bits. A KindInfo request without a rider is the bare
// envelope it always was; one with a rider closes with a byte holding exactly
// one of them and the operation behind it — the entry to apply, or the prefix
// to scan. The InfoResp presence byte holds flagPresent and, when the
// receiver served a rider, the same bit, naming the answer that closes the
// payload: the apply's Changed bool, or the scanned entry list.
const (
	riderApply = 1 << 1
	riderScan  = 1 << 2
)

func appendFlags(b []byte, present, trailer bool) []byte {
	var f byte
	if present {
		f = flagPresent
	}
	if trailer {
		f |= flagTrailer
	}
	return append(b, f)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendPath bit-packs a path MSB-first: uvarint bit count, then
// ceil(n/8) bytes with zero padding in the trailing byte.
func appendPath(b []byte, p bitpath.Path) []byte {
	b = appendUvarint(b, uint64(len(p)))
	var cur byte
	for i := 0; i < len(p); i++ {
		cur = cur<<1 | (p[i]-'0')&1
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if r := len(p) % 8; r != 0 {
		b = append(b, cur<<(8-r))
	}
	return b
}

func appendAddr(b []byte, a addr.Addr) []byte { return appendVarint(b, int64(a)) }

func appendRefSet(b []byte, r RefSet) []byte {
	b = appendUvarint(b, uint64(len(r.Addrs)))
	for _, a := range r.Addrs {
		b = appendAddr(b, a)
	}
	return b
}

func appendEntry(b []byte, e store.Entry) []byte {
	b = appendPath(b, e.Key)
	b = appendString(b, e.Name)
	b = appendAddr(b, e.Holder)
	return appendU64(b, e.Version)
}

func appendEntries(b []byte, es []store.Entry) []byte {
	b = appendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = appendEntry(b, e)
	}
	return b
}

func appendSpan(b []byte, s trace.Span) []byte {
	b = appendU64(b, s.ID)
	b = appendU64(b, s.Parent)
	b = appendAddr(b, s.Peer)
	b = appendPath(b, s.Path)
	b = appendVarint(b, int64(s.Level))
	b = appendAddr(b, s.Ref)
	b = appendBool(b, s.Matched)
	b = appendBool(b, s.Backtracked)
	return appendVarint(b, s.LatencyNS)
}

func appendSpans(b []byte, ss []trace.Span) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendSpan(b, s)
	}
	return b
}

// appendMessageBody encodes the envelope and the kind-selected payload.
// Payload pointers not selected by the kind are not encoded — the kind is
// the discriminator, exactly as the handler dispatch reads it.
func appendMessageBody(b []byte, m *Message) ([]byte, error) {
	b = appendAddr(b, m.From)
	switch m.Kind {
	case KindQuery:
		q := m.Query
		b = appendFlags(b, q != nil, q != nil && q.Read != nil)
		if q != nil {
			b = appendPath(b, q.Key)
			b = appendVarint(b, int64(q.Level))
			b = appendBool(b, q.Ctx != nil)
			if c := q.Ctx; c != nil {
				b = appendU64(b, c.TraceID)
				b = appendU64(b, c.Parent)
				b = appendVarint(b, int64(c.Budget))
				b = appendBool(b, c.Sampled)
			}
			if r := q.Read; r != nil {
				b = appendPath(b, r.Key)
				b = appendString(b, r.Name)
			}
		}
	case KindQueryResp:
		q := m.QueryResp
		b = appendFlags(b, q != nil, q != nil && q.Has)
		if q != nil {
			b = appendBool(b, q.Found)
			b = appendAddr(b, q.Peer)
			b = appendPath(b, q.Path)
			b = appendVarint(b, int64(q.Messages))
			b = appendVarint(b, int64(q.Backtracks))
			b = appendSpans(b, q.Spans)
			if q.Has {
				b = appendEntry(b, q.Entry)
			}
		}
	case KindExchange:
		b = appendBool(b, m.Exchange != nil)
		if e := m.Exchange; e != nil {
			b = appendPath(b, e.Path)
			b = appendUvarint(b, uint64(len(e.Refs)))
			for _, r := range e.Refs {
				b = appendRefSet(b, r)
			}
			b = appendVarint(b, int64(e.Depth))
		}
	case KindExchangeResp:
		b = appendBool(b, m.ExchangeResp != nil)
		if e := m.ExchangeResp; e != nil {
			b = appendPath(b, e.BasePath)
			b = appendBool(b, e.Extend)
			b = append(b, e.ExtendBit&1)
			b = appendRefSet(b, e.ExtendRefs)
			b = appendUvarint(b, uint64(len(e.SetRefs)))
			for _, level := range sortedLevels(e.SetRefs) {
				b = appendVarint(b, int64(level))
				b = appendRefSet(b, e.SetRefs[level])
			}
			b = appendBool(b, e.AddBuddy)
			b = appendUvarint(b, uint64(len(e.ForwardTo)))
			for _, a := range e.ForwardTo {
				b = appendAddr(b, a)
			}
			b = appendEntries(b, e.Handover)
		}
	case KindApply:
		b = appendBool(b, m.Apply != nil)
		if a := m.Apply; a != nil {
			b = appendEntry(b, a.Entry)
		}
	case KindApplyResp:
		b = appendBool(b, m.ApplyResp != nil)
		if a := m.ApplyResp; a != nil {
			b = appendBool(b, a.Changed)
		}
	case KindGet:
		b = appendBool(b, m.Get != nil)
		if g := m.Get; g != nil {
			b = appendPath(b, g.Key)
			b = appendString(b, g.Name)
		}
	case KindGetResp:
		b = appendBool(b, m.GetResp != nil)
		if g := m.GetResp; g != nil {
			b = appendEntry(b, g.Entry)
			b = appendBool(b, g.Found)
		}
	case KindInfo:
		switch r := m.Info; {
		case r == nil: // the plain request has no payload
		case r.Apply != nil && r.Scan == nil:
			b = append(b, riderApply)
			b = appendEntry(b, r.Apply.Entry)
		case r.Scan != nil && r.Apply == nil:
			b = append(b, riderScan)
			b = appendPath(b, r.Scan.Prefix)
		default:
			return b, fmt.Errorf("wire: an info rider carries one of an apply and a scan")
		}
	case KindMetrics:
		// No request payload.
	case KindInfoResp:
		i := m.InfoResp
		var f byte
		switch {
		case i == nil:
		case i.Applied != nil && i.Scanned != nil:
			return b, fmt.Errorf("wire: an info answer carries one of an apply's and a scan's answers")
		case i.Applied != nil:
			f = flagPresent | riderApply
		case i.Scanned != nil:
			f = flagPresent | riderScan
		default:
			f = flagPresent
		}
		b = append(b, f)
		if i != nil {
			b = appendAddr(b, i.Addr)
			b = appendPath(b, i.Path)
			b = appendUvarint(b, uint64(len(i.Refs)))
			for _, r := range i.Refs {
				b = appendRefSet(b, r)
			}
			b = appendRefSet(b, i.Buddies)
			b = appendVarint(b, int64(i.Entries))
			if i.Applied != nil {
				b = appendBool(b, i.Applied.Changed)
			}
			if i.Scanned != nil {
				b = appendEntries(b, i.Scanned.Entries)
			}
		}
	case KindScan:
		b = appendBool(b, m.Scan != nil)
		if s := m.Scan; s != nil {
			b = appendPath(b, s.Prefix)
		}
	case KindScanResp:
		b = appendBool(b, m.ScanResp != nil)
		if s := m.ScanResp; s != nil {
			b = appendEntries(b, s.Entries)
		}
	case KindError:
		b = appendString(b, m.Error)
	case KindTraces:
		b = appendBool(b, m.Traces != nil)
		if t := m.Traces; t != nil {
			b = appendVarint(b, int64(t.Limit))
		}
	case KindTracesResp:
		b = appendBool(b, m.TracesResp != nil)
		if t := m.TracesResp; t != nil {
			b = appendU64(b, t.Total)
			b = appendUvarint(b, uint64(len(t.Traces)))
			for _, dt := range t.Traces {
				b = appendU64(b, dt.TraceID)
				b = appendPath(b, dt.Key)
				b = appendBool(b, dt.Found)
				b = appendVarint(b, int64(dt.Messages))
				b = appendVarint(b, int64(dt.Backtracks))
				b = appendSpans(b, dt.Spans)
			}
		}
	case KindHealth:
		b = appendBool(b, m.Health != nil)
		if h := m.Health; h != nil {
			b = appendBool(b, h.WantLiveness)
		}
	case KindHealthResp:
		b = appendBool(b, m.HealthResp != nil)
		if h := m.HealthResp; h != nil {
			d := h.Digest
			b = appendAddr(b, d.Addr)
			b = appendPath(b, d.Path)
			b = appendVarint(b, int64(d.Entries))
			b = appendU64(b, d.MaxVersion)
			b = appendU64(b, d.IndexHash)
			b = appendUvarint(b, uint64(len(d.RefCounts)))
			for _, c := range d.RefCounts {
				b = appendVarint(b, int64(c))
			}
			b = appendVarint(b, int64(d.Buddies))
			b = appendUvarint(b, uint64(len(d.Liveness)))
			for _, lp := range d.Liveness {
				b = appendVarint(b, int64(lp.Level))
				b = appendVarint(b, lp.Live)
				b = appendVarint(b, lp.Dead)
			}
			b = appendVarint(b, h.Rounds)
		}
	case KindBatch, KindBatchResp:
		msgs, err := batchMsgs(m)
		if err != nil {
			return b, err
		}
		b = appendUvarint(b, uint64(len(msgs)))
		for i := range msgs {
			sub := &msgs[i]
			if sub.Kind == KindBatch || sub.Kind == KindBatchResp {
				return b, fmt.Errorf("wire: nested batch message")
			}
			if sub.Kind == KindInfo && sub.Info != nil {
				// A rider closes its frame; in a batch the next slot's kind
				// byte would be read as one.
				return b, fmt.Errorf("wire: info rider in a batch")
			}
			b = append(b, byte(sub.Kind))
			var err error
			if b, err = appendMessageBody(b, sub); err != nil {
				return b, err
			}
		}
	case KindMetricsResp:
		b = appendBool(b, m.MetricsResp != nil)
		if r := m.MetricsResp; r != nil {
			var err error
			if b, err = appendMetricsSnapshot(b, r.Snap); err != nil {
				return b, err
			}
		}
	case KindHistory:
		b = appendBool(b, m.History != nil)
		if h := m.History; h != nil {
			b = appendVarint(b, h.WindowNS)
			b = appendVarint(b, h.MaxPoints)
		}
	case KindHistoryResp:
		b = appendBool(b, m.HistoryResp != nil)
		if r := m.HistoryResp; r != nil {
			dump := r.Dump
			b = appendVarint(b, int64(dump.Schema))
			b = appendVarint(b, dump.IntervalNS)
			b = appendUvarint(b, uint64(len(dump.Points)))
			for _, p := range dump.Points {
				b = appendVarint(b, p.AtNS)
				var err error
				if b, err = appendMetricsSnapshot(b, p.Snap); err != nil {
					return b, err
				}
			}
		}
	case KindRepair:
		b = appendBool(b, m.Repair != nil)
		if r := m.Repair; r != nil {
			b = appendBool(b, r.Trigger)
		}
	case KindRepairResp:
		b = appendBool(b, m.RepairResp != nil)
		if r := m.RepairResp; r != nil {
			s := r.Status
			b = appendBool(b, s.Enabled)
			b = appendVarint(b, s.Rounds)
			b = appendVarint(b, s.Messages)
			b = appendVarint(b, s.LastFaults)
			b = appendVarint(b, s.LastHeals)
			b = appendVarint(b, s.LastUnhealed)
			b = appendTallies(b, s.Faults)
			b = appendTallies(b, s.Heals)
		}
	default:
		return b, fmt.Errorf("%w: %v", ErrUnknownKind, m.Kind)
	}
	return b, nil
}

// appendTallies encodes a repair tally list (name, count pairs).
func appendTallies(b []byte, ts []repair.Tally) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendString(b, t.Name)
		b = appendVarint(b, t.N)
	}
	return b
}

// appendMetricsSnapshot encodes one mergeable metrics snapshot. The
// layout is keyed off s.Schema — the first field — so it is
// self-describing: v2 snapshots carry incarnation stamps and per-hist
// exemplar lists, v1 snapshots (including ones relayed from pre-history
// peers) re-encode byte-identically to the v1 layout and keep decoding
// everywhere.
func appendMetricsSnapshot(b []byte, s telemetry.MetricsSnapshot) ([]byte, error) {
	b = appendVarint(b, int64(s.Schema))
	if s.Schema >= 2 {
		b = appendVarint(b, s.StartEpochNS)
		b = appendVarint(b, s.UptimeNS)
	}
	b = appendUvarint(b, uint64(len(s.Stats)))
	for _, st := range s.Stats {
		b = appendString(b, st.Name)
		b = appendVarint(b, st.Value)
	}
	b = appendUvarint(b, uint64(len(s.Hists)))
	for _, h := range s.Hists {
		if len(h.Idx) != len(h.N) {
			return b, fmt.Errorf("wire: histogram snapshot %q: %d indexes vs %d counts", h.Name, len(h.Idx), len(h.N))
		}
		b = appendString(b, h.Name)
		b = append(b, h.SubBits)
		b = appendVarint(b, h.Count)
		b = appendVarint(b, h.Sum)
		b = appendUvarint(b, uint64(len(h.Idx)))
		for i := range h.Idx {
			b = appendUvarint(b, uint64(h.Idx[i]))
			b = appendVarint(b, h.N[i])
		}
		if s.Schema >= 2 {
			if len(h.ExIdx) != len(h.ExTrace) {
				return b, fmt.Errorf("wire: histogram snapshot %q: %d exemplar indexes vs %d trace ids", h.Name, len(h.ExIdx), len(h.ExTrace))
			}
			b = appendUvarint(b, uint64(len(h.ExIdx)))
			for i := range h.ExIdx {
				b = appendUvarint(b, uint64(h.ExIdx[i]))
				b = appendU64(b, h.ExTrace[i])
			}
		}
	}
	return b, nil
}

// batchMsgs returns the sub-message slice of a batch envelope (either
// direction); a nil payload encodes as an empty batch.
func batchMsgs(m *Message) ([]Message, error) {
	if m.Kind == KindBatch {
		if m.Batch == nil {
			return nil, nil
		}
		return m.Batch.Msgs, nil
	}
	if m.BatchResp == nil {
		return nil, nil
	}
	return m.BatchResp.Msgs, nil
}

// sortedLevels returns the SetRefs keys ascending, so the encoding is
// deterministic.
func sortedLevels(m map[int]RefSet) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // tiny maps: insertion sort beats sort.Ints
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// --- decode ----------------------------------------------------------------

// bdec is a sticky-error payload decoder: the first malformed field poisons
// the decoder and every later get returns a zero value, so decode functions
// read linearly and check err once.
type bdec struct {
	b   []byte
	off int
	err error
}

func (d *bdec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// remaining returns the unread byte count.
func (d *bdec) remaining() int { return len(d.b) - d.off }

// need guards a count of variable-size elements against over-allocation:
// every element costs at least min bytes, so a count the remaining payload
// cannot hold is corrupt, not a huge make().
func (d *bdec) need(count uint64, min int) bool {
	if d.err != nil {
		return false
	}
	if min < 1 {
		min = 1
	}
	if count > uint64(d.remaining())/uint64(min) {
		d.fail("count exceeds payload")
		return false
	}
	return true
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *bdec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *bdec) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

// flags reads the query pair's flags byte: whether the payload is there and
// whether the read trailer closes it. A trailer without a payload, or any
// other bit, is corrupt.
func (d *bdec) flags() (present, trailer bool) {
	f := d.byte()
	if f > flagPresent|flagTrailer || f == flagTrailer {
		d.fail("bad payload flags")
		return false, false
	}
	return f&flagPresent != 0, f&flagTrailer != 0
}

// bytes returns a length-prefixed byte field as a view of the payload,
// valid until the pooled buffer is reused.
func (d *bdec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail("truncated string")
		return nil
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off]
}

func (d *bdec) string() string {
	return string(d.bytes()) // copies out of the pooled buffer
}

// pathHead reads a path's bit count and checks the packed bytes behind it
// (they fit the payload, pad bits are zero) without consuming them: the
// caller unpacks nbits from d.b[d.off:] and skips nbytes.
func (d *bdec) pathHead() (nbits, nbytes int) {
	n := d.uvarint()
	if d.err != nil {
		return 0, 0
	}
	// Bound the bit count before any arithmetic on it: for n near 2^64,
	// (n+7)/8 wraps and would slip past the remaining-bytes check into a
	// panicking make(). remaining() is capped by MaxFrameSize, so the
	// multiplication cannot itself overflow.
	if n > uint64(d.remaining())*8 {
		d.fail("truncated path")
		return 0, 0
	}
	nbits, nbytes = int(n), int((n+7)/8)
	// Canonical encoding: pad bits in the trailing byte must be zero.
	if r := nbits % 8; r != 0 && d.b[d.off+nbytes-1]&(0xff>>r) != 0 {
		d.fail("non-zero path padding")
		return 0, 0
	}
	return nbits, nbytes
}

// bit returns bit i of the MSB-first packed src as '0' or '1'.
func bit(src []byte, i int) byte { return '0' + src[i/8]>>(7-i%8)&1 }

// appendBits unpacks the first nbits of the MSB-first packed src into dst,
// one '0' or '1' byte each.
func appendBits(dst, src []byte, nbits int) []byte {
	for i := 0; i < nbits; i++ {
		dst = append(dst, bit(src, i))
	}
	return dst
}

func (d *bdec) path() bitpath.Path {
	nbits, nbytes := d.pathHead()
	// Paths are short (one bit per trie level): unpack into a stack
	// buffer so the only allocation is the returned string.
	var short [64]byte
	out := appendBits(short[:0], d.b[d.off:], nbits)
	d.off += nbytes
	return bitpath.Path(out)
}

func (d *bdec) addr() addr.Addr {
	v := d.varint()
	if v < int64(addr.Nil) || v > int64(^uint32(0)>>1) {
		d.fail("address out of range")
		return addr.Nil
	}
	return addr.Addr(v)
}

func (d *bdec) int() int { return int(d.varint()) }

func (d *bdec) refSet() RefSet {
	n := d.uvarint()
	if !d.need(n, 1) || n == 0 {
		return RefSet{}
	}
	out := make([]addr.Addr, n)
	for i := range out {
		out[i] = d.addr()
	}
	return RefSet{Addrs: out}
}

// refSets decodes a peer's link state — a counted list of per-level reference
// sets and, with buddies set, the buddy set behind it — into one address
// array the sets sub-slice, the way peer.Editor.RefLists builds it: a first
// pass checks every set exactly as refSet() would and counts the addresses, a
// second decodes them — two allocations per message instead of one plus one
// per level. An empty set keeps nil Addrs, as refSet() leaves it.
func (d *bdec) refSets(buddies bool) (levels []RefSet, buddySet RefSet) {
	n := d.uvarint()
	if !d.need(n, 1) {
		n = 0
	}
	sets := int(n)
	if buddies {
		sets++
	}
	start, total := d.off, 0
	for i := 0; i < sets && d.err == nil; i++ {
		c := d.uvarint()
		if !d.need(c, 1) {
			break
		}
		for j := uint64(0); j < c && d.err == nil; j++ {
			d.addr()
		}
		total += int(c)
	}
	if d.err != nil {
		return nil, RefSet{}
	}
	d.off = start
	var all []addr.Addr
	if total > 0 {
		all = make([]addr.Addr, 0, total)
	}
	if n > 0 {
		levels = make([]RefSet, n)
		for i := range levels {
			levels[i], all = d.refSetInto(all)
		}
	}
	if buddies {
		buddySet, _ = d.refSetInto(all)
	}
	return levels, buddySet
}

// refSetInto decodes one reference set refSets has already checked onto the
// end of all, which has the room: the set is all's new tail.
func (d *bdec) refSetInto(all []addr.Addr) (RefSet, []addr.Addr) {
	from := len(all)
	for c := d.uvarint(); c > 0; c-- {
		all = append(all, d.addr())
	}
	if from == len(all) {
		return RefSet{}, all
	}
	return RefSet{Addrs: all[from:len(all):len(all)]}, all
}

// keyName decodes a path and the string behind it — an entry's or a read's
// (Key, Name) — into one string the two sub-slice: one allocation for the
// pair, and none besides while they fit the stack buffer.
func (d *bdec) keyName() (bitpath.Path, string) {
	nbits, nbytes := d.pathHead()
	packed := d.b[d.off:]
	d.off += nbytes
	name := d.bytes()
	if d.err != nil {
		return "", ""
	}
	var short [128]byte
	s := string(append(appendBits(short[:0], packed, nbits), name...))
	return bitpath.Path(s[:nbits]), s[nbits:]
}

func (d *bdec) entry() store.Entry {
	key, name := d.keyName()
	return store.Entry{Key: key, Name: name, Holder: d.addr(), Version: d.u64()}
}

// entries decodes an entry list into one arena: a first pass checks every
// entry exactly as entry() would and sizes the key bits and name bytes, a
// second unpacks them all into one string the entries sub-slice — two
// allocations per list instead of one plus two per entry. The entries pin
// that string, so whoever keeps one copies it (store.Apply does).
func (d *bdec) entries() []store.Entry {
	n := d.uvarint()
	if !d.need(n, 2) || n == 0 {
		return nil
	}
	start, size := d.off, 0
	for i := uint64(0); i < n && d.err == nil; i++ {
		nbits, nbytes := d.pathHead()
		d.off += nbytes
		size += nbits + len(d.bytes())
		d.addr()
		d.u64()
	}
	if d.err != nil {
		return nil
	}
	d.off = start
	out := make([]store.Entry, n)
	var arena strings.Builder
	arena.Grow(size)
	for i := range out {
		k := arena.Len()
		nbits, nbytes := d.pathHead()
		for j, src := 0, d.b[d.off:]; j < nbits; j++ {
			arena.WriteByte(bit(src, j))
		}
		d.off += nbytes
		m := arena.Len()
		arena.Write(d.bytes())
		s := arena.String() // shares the arena: Grow sized it, nothing below reallocates
		out[i] = store.Entry{Key: bitpath.Path(s[k:m]), Name: s[m:], Holder: d.addr(), Version: d.u64()}
	}
	return out
}

func (d *bdec) span() trace.Span {
	return trace.Span{
		ID: d.u64(), Parent: d.u64(), Peer: d.addr(), Path: d.path(),
		Level: d.int(), Ref: d.addr(), Matched: d.bool(),
		Backtracked: d.bool(), LatencyNS: d.varint(),
	}
}

func (d *bdec) spans() []trace.Span {
	n := d.uvarint()
	if !d.need(n, 16) || n == 0 {
		return nil
	}
	out := make([]trace.Span, n)
	for i := range out {
		out[i] = d.span()
	}
	return out
}

// tallies decodes a repair tally list, the inverse of appendTallies. A
// tally costs at least 2 bytes: the name length and the count varint.
func (d *bdec) tallies() []repair.Tally {
	n := d.uvarint()
	if !d.need(n, 2) || n == 0 {
		return nil
	}
	out := make([]repair.Tally, n)
	for i := range out {
		out[i] = repair.Tally{Name: d.string(), N: d.varint()}
	}
	return out
}

// metricsSnapshot decodes one mergeable metrics snapshot, the inverse of
// appendMetricsSnapshot. The decoded Schema field selects the layout:
// incarnation stamps and exemplar lists exist only at schema ≥ 2, so v1
// bodies from pre-history peers parse exactly as before.
func (d *bdec) metricsSnapshot() telemetry.MetricsSnapshot {
	var s telemetry.MetricsSnapshot
	s.Schema = d.int()
	if s.Schema >= 2 {
		s.StartEpochNS = d.varint()
		s.UptimeNS = d.varint()
	}
	if n := d.uvarint(); d.need(n, 2) && n > 0 {
		s.Stats = make([]telemetry.Stat, n)
		for i := range s.Stats {
			s.Stats[i] = telemetry.Stat{Name: d.string(), Value: d.varint()}
		}
	}
	// A histogram costs at least 5 bytes: name length, subbits, count,
	// sum, pair count. Each (idx, n) pair at least 2; each exemplar
	// (idx, trace id) pair at least 9.
	if n := d.uvarint(); d.need(n, 5) && n > 0 {
		s.Hists = make([]telemetry.QHistSnapshot, n)
		for i := range s.Hists {
			h := telemetry.QHistSnapshot{Name: d.string(), SubBits: d.byte(),
				Count: d.varint(), Sum: d.varint()}
			if pairs := d.uvarint(); d.need(pairs, 2) && pairs > 0 {
				h.Idx = make([]uint16, pairs)
				h.N = make([]int64, pairs)
				for j := range h.Idx {
					idx := d.uvarint()
					if d.err == nil && idx > 0xffff {
						d.fail("histogram bucket index out of range")
					}
					h.Idx[j] = uint16(idx)
					h.N[j] = d.varint()
				}
			}
			if s.Schema >= 2 {
				if ex := d.uvarint(); d.need(ex, 9) && ex > 0 {
					h.ExIdx = make([]uint16, ex)
					h.ExTrace = make([]uint64, ex)
					for j := range h.ExIdx {
						idx := d.uvarint()
						if d.err == nil && idx > 0xffff {
							d.fail("exemplar bucket index out of range")
						}
						h.ExIdx[j] = uint16(idx)
						h.ExTrace[j] = d.u64()
					}
				}
			}
			s.Hists[i] = h
		}
	}
	return s
}

// decodeMessageBody decodes one binary payload. Strict: the payload must
// be consumed exactly, unknown kinds and malformed fields are ErrCorrupt.
func decodeMessageBody(kind Kind, body []byte) (*Message, error) {
	d := &bdec{b: body}
	m, err := decodeInto(d, kind, nil)
	if err != nil {
		return nil, err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v payload", ErrCorrupt, len(d.b)-d.off, kind)
	}
	return m, nil
}

// Fused returns a message and a payload P cut from one allocation. Whoever
// makes a message makes its payload with it and the two die together, so a
// message costs one object, not two; the caller sets Kind, From and the
// payload pointer that goes with them.
func Fused[P any]() (m *Message, p *P) {
	p = payload[P](&m)
	return m, p
}

// payload is Fused for the decoder, which fills a batch's slots in place: a
// message that is already there (*m) gets a payload of its own, one that is
// not is made with it.
func payload[P any](m **Message) *P {
	if *m != nil {
		return new(P)
	}
	x := new(struct {
		m Message
		p P
	})
	*m = &x.m
	return &x.p
}

// routedQuery is a QueryReq with what it may point to: every hop of a traced,
// read-carrying query decodes all three.
type routedQuery struct {
	q QueryReq
	r GetReq
	c trace.SpanContext
}

// infoRider is an InfoReq with the operation it carries, and infoAnswer an
// InfoResp with the answer to it: either decodes as one object.
type infoRider struct {
	i InfoReq
	a ApplyReq
	s ScanReq
}

type infoAnswer struct {
	i InfoResp
	a ApplyResp
	s ScanResp
}

// decodeInto decodes the envelope and payload for kind, into a message of
// its own or into the batch slot `into`: sub-messages of a batch must not be
// batches.
func decodeInto(d *bdec, kind Kind, into *Message) (*Message, error) {
	from := d.addr()
	m := into
	switch kind {
	case KindQuery:
		if present, read := d.flags(); present {
			x := payload[routedQuery](&m)
			x.q.Key, x.q.Level = d.path(), d.int()
			if d.bool() {
				x.c = trace.SpanContext{TraceID: d.u64(), Parent: d.u64(),
					Budget: d.int(), Sampled: d.bool()}
				x.q.Ctx = &x.c
			}
			if read {
				x.r.Key, x.r.Name = d.keyName()
				x.q.Read = &x.r
			}
			m.Query = &x.q
		}
	case KindQueryResp:
		if present, has := d.flags(); present {
			q := payload[QueryResp](&m)
			*q = QueryResp{Found: d.bool(), Peer: d.addr(), Path: d.path(),
				Messages: d.int(), Backtracks: d.int(), Spans: d.spans(), Has: has}
			if has {
				q.Entry = d.entry()
			}
			m.QueryResp = q
		}
	case KindExchange:
		if d.bool() {
			e := payload[ExchangeReq](&m)
			e.Path = d.path()
			e.Refs, _ = d.refSets(false)
			e.Depth = d.int()
			m.Exchange = e
		}
	case KindExchangeResp:
		if d.bool() {
			e := payload[ExchangeResp](&m)
			e.BasePath, e.Extend, e.ExtendBit = d.path(), d.bool(), d.byte()
			if e.ExtendBit > 1 {
				d.fail("bad extend bit")
			}
			e.ExtendRefs = d.refSet()
			if n := d.uvarint(); d.need(n, 2) && n > 0 {
				e.SetRefs = make(map[int]RefSet, n)
				for i := uint64(0); i < n; i++ {
					level := d.int()
					e.SetRefs[level] = d.refSet()
				}
				if uint64(len(e.SetRefs)) != n {
					d.fail("duplicate SetRefs level")
				}
			}
			e.AddBuddy = d.bool()
			if n := d.uvarint(); d.need(n, 1) && n > 0 {
				e.ForwardTo = make([]addr.Addr, n)
				for i := range e.ForwardTo {
					e.ForwardTo[i] = d.addr()
				}
			}
			e.Handover = d.entries()
			m.ExchangeResp = e
		}
	case KindApply:
		if d.bool() {
			a := payload[ApplyReq](&m)
			a.Entry = d.entry()
			m.Apply = a
		}
	case KindApplyResp:
		if d.bool() {
			a := payload[ApplyResp](&m)
			a.Changed = d.bool()
			m.ApplyResp = a
		}
	case KindGet:
		if d.bool() {
			g := payload[GetReq](&m)
			g.Key, g.Name = d.keyName()
			m.Get = g
		}
	case KindGetResp:
		if d.bool() {
			g := payload[GetResp](&m)
			*g = GetResp{Entry: d.entry(), Found: d.bool()}
			m.GetResp = g
		}
	case KindInfo:
		// A rider closes the frame it rides on. A batch slot has none: the
		// next slot's kind byte follows the envelope.
		if into == nil && d.remaining() > 0 {
			x := payload[infoRider](&m)
			switch d.byte() {
			case riderApply:
				x.a.Entry = d.entry()
				x.i.Apply = &x.a
			case riderScan:
				x.s.Prefix = d.path()
				x.i.Scan = &x.s
			default:
				d.fail("bad info rider")
			}
			m.Info = &x.i
		}
	case KindMetrics:
		// No payload.
	case KindInfoResp:
		var i *InfoResp
		switch f := d.byte(); f {
		case 0:
		case flagPresent:
			i = payload[InfoResp](&m)
		case flagPresent | riderApply:
			x := payload[infoAnswer](&m)
			x.i.Applied = &x.a
			i = &x.i
		case flagPresent | riderScan:
			x := payload[infoAnswer](&m)
			x.i.Scanned = &x.s
			i = &x.i
		default:
			d.fail("bad info answer flags")
		}
		if i != nil {
			i.Addr, i.Path = d.addr(), d.path()
			i.Refs, i.Buddies = d.refSets(true)
			i.Entries = d.int()
			if i.Applied != nil {
				i.Applied.Changed = d.bool()
			}
			if i.Scanned != nil {
				i.Scanned.Entries = d.entries()
			}
			m.InfoResp = i
		}
	case KindScan:
		if d.bool() {
			s := payload[ScanReq](&m)
			s.Prefix = d.path()
			m.Scan = s
		}
	case KindScanResp:
		if d.bool() {
			s := payload[ScanResp](&m)
			s.Entries = d.entries()
			m.ScanResp = s
		}
	case KindError:
		if m == nil {
			m = new(Message)
		}
		m.Error = d.string()
	case KindTraces:
		if d.bool() {
			t := payload[TracesReq](&m)
			t.Limit = d.int()
			m.Traces = t
		}
	case KindTracesResp:
		if d.bool() {
			t := payload[TracesResp](&m)
			t.Total = d.u64()
			if n := d.uvarint(); d.need(n, 12) && n > 0 {
				t.Traces = make([]trace.Trace, n)
				for i := range t.Traces {
					t.Traces[i] = trace.Trace{TraceID: d.u64(), Key: d.path(),
						Found: d.bool(), Messages: d.int(), Backtracks: d.int(),
						Spans: d.spans()}
				}
			}
			m.TracesResp = t
		}
	case KindHealth:
		if d.bool() {
			h := payload[HealthReq](&m)
			h.WantLiveness = d.bool()
			m.Health = h
		}
	case KindHealthResp:
		if d.bool() {
			h := payload[HealthResp](&m)
			h.Digest = health.Digest{Addr: d.addr(), Path: d.path(),
				Entries: d.int(), MaxVersion: d.u64(), IndexHash: d.u64()}
			if n := d.uvarint(); d.need(n, 1) && n > 0 {
				h.Digest.RefCounts = make([]int, n)
				for i := range h.Digest.RefCounts {
					h.Digest.RefCounts[i] = d.int()
				}
			}
			h.Digest.Buddies = d.int()
			if n := d.uvarint(); d.need(n, 3) && n > 0 {
				h.Digest.Liveness = make([]health.LevelProbe, n)
				for i := range h.Digest.Liveness {
					h.Digest.Liveness[i] = health.LevelProbe{Level: d.int(),
						Live: d.varint(), Dead: d.varint()}
				}
			}
			h.Rounds = d.varint()
			m.HealthResp = h
		}
	case KindBatch, KindBatchResp:
		if into != nil {
			d.fail("nested batch")
			break
		}
		n := d.uvarint()
		if d.need(n, 2) && n > 0 {
			msgs := make([]Message, n)
			for i := range msgs {
				if _, err := decodeInto(d, Kind(d.byte()), &msgs[i]); err != nil {
					return nil, err
				}
			}
			if kind == KindBatch {
				b := payload[BatchReq](&m)
				b.Msgs = msgs
				m.Batch = b
			} else {
				b := payload[BatchResp](&m)
				b.Msgs = msgs
				m.BatchResp = b
			}
		}
	case KindMetricsResp:
		if d.bool() {
			r := payload[MetricsResp](&m)
			r.Snap = d.metricsSnapshot()
			m.MetricsResp = r
		}
	case KindHistory:
		if d.bool() {
			h := payload[HistoryReq](&m)
			*h = HistoryReq{WindowNS: d.varint(), MaxPoints: d.varint()}
			m.History = h
		}
	case KindHistoryResp:
		if d.bool() {
			r := payload[HistoryResp](&m)
			r.Dump.Schema = d.int()
			r.Dump.IntervalNS = d.varint()
			// A point costs at least 4 bytes: its timestamp varint plus
			// the snapshot's schema and two counts.
			if n := d.uvarint(); d.need(n, 4) && n > 0 {
				r.Dump.Points = make([]telemetry.HistoryPoint, n)
				for i := range r.Dump.Points {
					r.Dump.Points[i] = telemetry.HistoryPoint{AtNS: d.varint(), Snap: d.metricsSnapshot()}
				}
			}
			m.HistoryResp = r
		}
	case KindRepair:
		if d.bool() {
			r := payload[RepairReq](&m)
			r.Trigger = d.bool()
			m.Repair = r
		}
	case KindRepairResp:
		if d.bool() {
			r := payload[RepairResp](&m)
			r.Status.Enabled = d.bool()
			r.Status.Rounds = d.varint()
			r.Status.Messages = d.varint()
			r.Status.LastFaults = d.varint()
			r.Status.LastHeals = d.varint()
			r.Status.LastUnhealed = d.varint()
			r.Status.Faults = d.tallies()
			r.Status.Heals = d.tallies()
			m.RepairResp = r
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(kind))
	}
	if d.err != nil {
		return nil, d.err
	}
	if m == nil {
		m = new(Message)
	}
	m.Kind, m.From = kind, from
	return m, nil
}
