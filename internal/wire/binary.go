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
// behind the payload; an apply's second bit says its entries come as a list;
// an info request may close with a rider byte and an info answer's presence
// byte names the rider's answer behind its payload; an observe request opens
// with the mask of its asks and its answer with the mask of its columns),
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
	"unsafe"

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

// ReadFrame reads one binary frame from r and decodes it. io.EOF before any
// header byte is returned verbatim (clean close); any malformed header or
// payload is ErrCorrupt. The returned message shares nothing with internal
// buffers.
func ReadFrame(r io.Reader) (seq uint32, flags uint8, m *Message, err error) {
	f, err := ReadRawFrame(r)
	if err != nil {
		return 0, 0, nil, err
	}
	if m, err = f.Decode(nil); err != nil {
		return 0, 0, nil, err
	}
	return f.Seq, f.Flags, m, nil
}

// RawFrame is one frame as ReadRawFrame leaves it: the header's fields and the
// body's bytes, undecoded, in a pooled buffer that Decode or Release gives
// back. A server's connection reader reads frames this far and no further, so
// the goroutine parked on every accepted connection runs no decoder and keeps
// the smallest stack; the worker that answers the request decodes it.
type RawFrame struct {
	Seq   uint32
	Flags uint8
	kind  Kind
	body  *poolBuf
}

// ReadRawFrame reads one frame's header and body from r, checking the magic,
// the version and the size the header claims, and decodes nothing. Errors are
// ReadFrame's.
//
// Handed a *bufio.Reader — which the server and the pool both do — the
// header is parsed in place in the reader's buffer; any other reader pays
// one small allocation for it (a local array escapes through the io.Reader
// interface). A header's claim costs nothing until its bytes arrive: the body
// is read in chunks of maxPooledBuf, the buffer growing as they do, so a peer
// that claims MaxFrameSize and stalls pins one chunk, not the claim.
func ReadRawFrame(r io.Reader) (RawFrame, error) {
	// A server's connection reader parks in this function's Peek between
	// frames, this function's stack frame under the netpoll's, so the frame
	// is kept small: a header read through another reader, the errors to
	// format and the body's read are functions of their own, and the reader's
	// goroutine keeps the runtime's smallest stack.
	var (
		hdr []byte
		err error
	)
	br, buffered := r.(*bufio.Reader)
	if buffered {
		hdr, err = br.Peek(HeaderSize)
	} else {
		hdr, err = readHeader(r)
	}
	if err != nil {
		return RawFrame{}, headerError(err, len(hdr))
	}
	f := RawFrame{Seq: binary.BigEndian.Uint32(hdr[5:9]), Flags: hdr[4], kind: Kind(hdr[3])}
	n := binary.BigEndian.Uint32(hdr[9:13])
	err = checkHeader(hdr[0], hdr[1], hdr[2], n)
	if buffered {
		br.Discard(HeaderSize) // cannot fail: Peek buffered these bytes
	}
	if err != nil {
		return RawFrame{}, err
	}
	if f.body, err = readBody(r, int(n)); err != nil {
		return RawFrame{}, err
	}
	return f, nil
}

// readHeader reads a frame header from a reader that is not a
// *bufio.Reader, returning the bytes it got.
func readHeader(r io.Reader) ([]byte, error) {
	hdr := make([]byte, HeaderSize)
	got, err := io.ReadFull(r, hdr)
	return hdr[:got], err
}

// headerError is what ReadRawFrame reports for a header read that failed
// with err after got bytes: io.EOF verbatim for a stream that ended cleanly
// before the frame, and a torn frame for one that ended inside it.
func headerError(err error, got int) error {
	if err == io.EOF && got > 0 {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return fmt.Errorf("wire: read frame header: %w", err)
}

// checkHeader refuses a header whose magic, version or claimed body size n
// is wrong.
func checkHeader(m0, m1, version byte, n uint32) error {
	if m0 != magic0 || m1 != magic1 {
		return fmt.Errorf("%w: bad frame magic %02x%02x", ErrCorrupt, m0, m1)
	}
	if version != BinaryVersion {
		return fmt.Errorf("%w: unsupported binary codec version %d", ErrCorrupt, version)
	}
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	return nil
}

// readBody reads an n-byte frame body from r into a buffer from bufPool. The
// body is read in chunks of maxPooledBuf, the buffer growing as they arrive.
func readBody(r io.Reader, n int) (*poolBuf, error) {
	pb := bufPool.Get().(*poolBuf)
	pb.b = pb.b[:0]
	for len(pb.b) < n {
		have, chunk := len(pb.b), min(n-len(pb.b), maxPooledBuf)
		if cap(pb.b) < have+chunk { // double, up to the claim
			grown := make([]byte, have, min(n, max(2*cap(pb.b), have+chunk)))
			copy(grown, pb.b)
			pb.b = grown
		}
		got, err := io.ReadFull(r, pb.b[have:have+chunk])
		pb.b = pb.b[:have+got]
		if err != nil {
			putBuf(pb)
			return nil, bodyError(err)
		}
	}
	return pb, nil
}

// bodyError is what ReadRawFrame reports for a body read that failed with
// err.
func bodyError(err error) error {
	if err == io.EOF {
		// ReadFull reports a stream that ends before the first byte of a
		// chunk as a plain EOF; the header promised it, so it is a torn
		// frame all the same.
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("wire: read frame body: %w", err)
}

// Decode decodes f's body — a KindQuery, or a KindInfo carrying a rider, into
// room (see Room); any other kind, or any kind with a nil room, into an object
// of its own — and gives the body's buffer back: the message shares nothing
// with it. f holds no body afterwards, whether the body decoded or not.
func (f *RawFrame) Decode(room *Room) (*Message, error) {
	defer f.Release()
	return decodeMessageBody(f.kind, f.body.b, room)
}

// Release gives f's body back undecoded, if f still holds one.
func (f *RawFrame) Release() {
	if f.body != nil {
		putBuf(f.body)
		f.body = nil
	}
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

// flagList is the apply request's second presence bit: the entries follow as a
// counted list. One entry follows bare, as it always did, so a one-entry apply
// is the frame it was; a decoder that reads the byte as a bool refuses a list.
const flagList = 1 << 1

// The info pair's rider bits. A KindInfo request without a rider is the bare
// envelope it always was; one with a rider closes with a byte holding exactly
// one of them and the operation behind it — the entry to apply, or the prefix
// to scan. The InfoResp presence byte holds flagPresent and, when the
// receiver served a rider, the same bit, naming the answer that closes the
// payload: the apply's Changed bool, or the scanned entry list.
//
// riderHeld marks a digested scan: on the request, riderScan|riderHeld and
// behind the prefix the count and the held digests; on its answer,
// flagPresent|riderScan|riderHeld and the digest before the entry list, or
// flagPresent|riderSame and the digest alone. The plain scan and its answer
// are the bytes they always were.
const (
	riderApply = 1 << 1
	riderScan  = 1 << 2
	riderHeld  = 1 << 3
	riderSame  = 1 << 4
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
		switch a := m.Apply; {
		case a == nil:
			b = append(b, 0)
		case len(a.Entries) == 1:
			b = append(b, flagPresent)
			b = appendEntry(b, a.Entries[0])
		case len(a.Entries) == 0:
			return b, fmt.Errorf("wire: an apply carries at least one entry")
		default:
			b = append(b, flagPresent|flagList)
			b = appendEntries(b, a.Entries)
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
		case r.Apply != nil && r.Scan == nil && len(r.Apply.Entries) == 1:
			b = append(b, riderApply)
			b = appendEntry(b, r.Apply.Entries[0])
		case r.Scan != nil && r.Apply == nil && !r.Scan.Digested && r.Scan.Held == nil:
			b = append(b, riderScan)
			b = appendPath(b, r.Scan.Prefix)
		case r.Scan != nil && r.Apply == nil && r.Scan.Digested && len(r.Scan.Held) <= MaxHeld:
			b = append(b, riderScan|riderHeld)
			b = appendPath(b, r.Scan.Prefix)
			b = appendUvarint(b, uint64(len(r.Scan.Held)))
			for _, h := range r.Scan.Held {
				b = appendU64(b, h)
			}
		case r.Scan != nil && r.Apply == nil:
			return b, fmt.Errorf("wire: a digested scan holds at most %d digests, not %d", MaxHeld, len(r.Scan.Held))
		default:
			return b, fmt.Errorf("wire: an info rider carries one of an apply of one entry and a scan")
		}
	case KindInfoResp:
		i := m.InfoResp
		var f byte
		switch {
		case i == nil:
		case i.Applied != nil && i.Scanned != nil:
			return b, fmt.Errorf("wire: an info answer carries one of an apply's and a scan's answers")
		case i.Applied != nil:
			f = flagPresent | riderApply
		case i.Scanned == nil:
			f = flagPresent
		case i.Scanned.Same && len(i.Scanned.Entries) > 0:
			return b, fmt.Errorf("wire: a same answer carries its digest alone, not %d entries", len(i.Scanned.Entries))
		case i.Scanned.Same:
			f = flagPresent | riderSame
		case i.Scanned.Digested:
			f = flagPresent | riderScan | riderHeld
		case i.Scanned.Digest != 0:
			return b, fmt.Errorf("wire: a plain scan's answer carries no digest")
		default:
			f = flagPresent | riderScan
		}
		b = append(b, f)
		if i != nil {
			b = appendLinks(b, i)
			if i.Applied != nil {
				b = appendBool(b, i.Applied.Changed)
			}
			if f&(riderHeld|riderSame) != 0 {
				b = appendU64(b, i.Scanned.Digest)
			}
			if f&riderScan != 0 {
				b = appendEntries(b, i.Scanned.Entries)
			}
		}
	case KindScan:
		if s := m.Scan; s != nil && (s.Digested || s.Held != nil) {
			return b, fmt.Errorf("wire: a digested scan rides on a visit")
		}
		b = appendBool(b, m.Scan != nil)
		if s := m.Scan; s != nil {
			b = appendPath(b, s.Prefix)
		}
	case KindScanResp:
		if s := m.ScanResp; s != nil && (s.Digested || s.Digest != 0 || s.Same) {
			return b, fmt.Errorf("wire: a digested scan's answer rides on a visit's")
		}
		b = appendBool(b, m.ScanResp != nil)
		if s := m.ScanResp; s != nil {
			b = appendEntries(b, s.Entries)
		}
	case KindError:
		b = appendString(b, m.Error)
	case KindObserve:
		b = appendBool(b, m.Observe != nil)
		if o := m.Observe; o != nil {
			if !o.Asks.Valid() {
				return b, fmt.Errorf("wire: observe asks %#x modify a column they do not ask", o.Asks)
			}
			b = appendUvarint(b, uint64(o.Asks))
			b = appendVarint(b, o.WindowNS)
			b = appendVarint(b, o.MaxPoints)
			b = appendVarint(b, int64(o.TraceLimit))
		}
	case KindObserveResp:
		b = appendBool(b, m.ObserveResp != nil)
		if o := m.ObserveResp; o != nil {
			b = appendUvarint(b, uint64(o.columns()))
			if o.Links != nil {
				b = appendLinks(b, o.Links)
			}
			if o.Health != nil {
				b = appendHealth(b, o.Health)
			}
			var err error
			if o.Metrics != nil {
				if b, err = appendMetricsSnapshot(b, *o.Metrics); err != nil {
					return b, err
				}
			}
			if o.History != nil {
				if b, err = appendHistoryDump(b, *o.History); err != nil {
					return b, err
				}
			}
			if o.Repair != nil {
				b = appendRepairStatus(b, *o.Repair)
			}
			if o.Traces != nil {
				b = appendTraces(b, o.Traces)
			}
		}
	default:
		return b, fmt.Errorf("%w: %v", ErrUnknownKind, m.Kind)
	}
	return b, nil
}

// appendLinks encodes a peer's link state: the InfoResp fields without the
// rider answers.
func appendLinks(b []byte, i *InfoResp) []byte {
	b = appendAddr(b, i.Addr)
	b = appendPath(b, i.Path)
	b = appendUvarint(b, uint64(len(i.Refs)))
	for _, r := range i.Refs {
		b = appendRefSet(b, r)
	}
	b = appendRefSet(b, i.Buddies)
	return appendVarint(b, int64(i.Entries))
}

// appendHealth encodes the health column: the digest, then the probe rounds.
func appendHealth(b []byte, h *HealthColumn) []byte {
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
	return appendVarint(b, h.Rounds)
}

// appendHistoryDump encodes the history column: the dump's header and each
// point with its snapshot.
func appendHistoryDump(b []byte, dump telemetry.HistoryDump) ([]byte, error) {
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
	return b, nil
}

// appendRepairStatus encodes the repair column.
func appendRepairStatus(b []byte, s repair.Status) []byte {
	b = appendBool(b, s.Enabled)
	b = appendVarint(b, s.Rounds)
	b = appendVarint(b, s.Messages)
	b = appendVarint(b, s.LastFaults)
	b = appendVarint(b, s.LastHeals)
	b = appendVarint(b, s.LastUnhealed)
	b = appendTallies(b, s.Faults)
	return appendTallies(b, s.Heals)
}

// appendTraces encodes the traces column: the recorded total, then each trace.
func appendTraces(b []byte, t *TracesColumn) []byte {
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
	return b
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

// pathBits reads a path and returns its packed bits unread, a view of the
// payload, for the caller to unpack once it knows where else the frame holds
// them (pathIn).
func (d *bdec) pathBits() (packed []byte, nbits int) {
	nbits, nbytes := d.pathHead()
	packed = d.b[d.off : d.off+nbytes]
	d.off += nbytes
	return packed, nbits
}

func (d *bdec) path() bitpath.Path { return unpack(d.pathBits()) }

// unpack returns the nbits packed path. One that packs into a byte — a peer's
// path in a grid of up to 256 leaves, a prefix search's prefix — is already in
// shortPaths and decodes for nothing; a longer one unpacks into a stack buffer,
// so its only allocation is the returned string.
func unpack(packed []byte, nbits int) bitpath.Path {
	switch {
	case nbits == 0:
		return ""
	case nbits <= 8:
		// The n-bit paths start behind the (n-2)·2^n + 2 bytes of the shorter ones.
		at := (nbits-2)<<nbits + 2 + nbits*int(packed[0]>>(8-nbits))
		return bitpath.Path(shortPaths[at : at+nbits])
	}
	var long [64]byte
	return bitpath.Path(appendBits(long[:0], packed, nbits))
}

// shortPaths holds every path of 1 to 8 bits, those of each length in numeric
// order behind all shorter ones: 3 586 bytes.
var shortPaths = func() string {
	var b []byte
	for n := 1; n <= 8; n++ {
		for v := 0; v < 1<<n; v++ {
			b = appendBits(b, []byte{byte(v << (8 - n))}, n)
		}
	}
	return string(b)
}()

// pathIn returns the nbits packed path as s[at:at+nbits] when those bytes of s
// are its bits, and unpacked into its own string otherwise: a path the frame
// already holds inside a decoded string is not decoded again.
func pathIn(s string, at int, packed []byte, nbits int) bitpath.Path {
	if at < 0 || at+nbits > len(s) {
		return unpack(packed, nbits)
	}
	for i := 0; i < nbits; i++ {
		if s[at+i] != bit(packed, i) {
			return unpack(packed, nbits)
		}
	}
	return bitpath.Path(s[at : at+nbits])
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
// array the sets sub-slice, the way a node builds it: a first pass checks
// every set exactly as refSet() would and counts the addresses, a second
// decodes them into what room.Take hands out — no allocation when the state
// fits the room, two when it does not (or room is nil), instead of one plus
// one per level. An empty set keeps nil Addrs, as refSet() leaves it.
func (d *bdec) refSets(buddies bool, room *LinkRoom) (levels []RefSet, buddySet RefSet) {
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
	levels, all := room.Take(int(n), total)
	for i := range levels {
		levels[i], all = d.refSetInto(all)
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
	return tailSet(all, from)
}

// pairRoom is room for one decoded (Key, Name) pair inside the object the
// message carrying it is decoded into: a 32-bit key at one byte per bit and a
// 32-byte name.
type pairRoom [64]byte

// keyName decodes a path and the string behind it — an entry's or a read's
// (Key, Name) — into one string the two sub-slice. The string is cut from room
// where the pair fits, the way strings.Builder makes its string: room is part
// of the object the message is decoded into, so its bytes are written here,
// before the string exists, and not again while the message lives. An object
// of its own is never reused; a Room is, only once the reply to the request in
// it is written, when nothing may point into it any more (Room.Clear). A pair
// that does not fit is one allocation, and none besides while it fits the
// stack buffer.
func (d *bdec) keyName(room *pairRoom) (bitpath.Path, string) {
	packed, nbits := d.pathBits()
	name := d.bytes()
	if d.err != nil {
		return "", ""
	}
	var s string
	if nbits+len(name) <= len(room) {
		b := append(appendBits(room[:0], packed, nbits), name...)
		s = unsafe.String(unsafe.SliceData(b), len(b))
	} else {
		var short [128]byte
		s = string(append(appendBits(short[:0], packed, nbits), name...))
	}
	return bitpath.Path(s[:nbits]), s[nbits:]
}

// entry decodes one entry, its key and name cut from room (see keyName).
func (d *bdec) entry(room *pairRoom) store.Entry {
	key, name := d.keyName(room)
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
			// A malformed histogram would poison every merge it joins: a
			// negative count subtracts other peers' observations, an index
			// past the geometry shifts qBounds past 63 bits.
			if d.err == nil {
				if err := h.Validate(); err != nil {
					d.fail(err.Error())
				}
			}
			s.Hists[i] = h
		}
	}
	return s
}

// links decodes a peer's link state into i, the inverse of appendLinks, its
// sets cut from room where they fit.
func (d *bdec) links(i *InfoResp, room *LinkRoom) {
	i.Addr, i.Path = d.addr(), d.path()
	i.Refs, i.Buddies = d.refSets(true, room)
	i.Entries = d.int()
}

// healthColumn decodes the health column, the inverse of appendHealth.
func (d *bdec) healthColumn() *HealthColumn {
	h := &HealthColumn{Digest: health.Digest{Addr: d.addr(), Path: d.path(),
		Entries: d.int(), MaxVersion: d.u64(), IndexHash: d.u64()}}
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
	return h
}

// historyDump decodes the history column, the inverse of appendHistoryDump.
func (d *bdec) historyDump() *telemetry.HistoryDump {
	dump := new(telemetry.HistoryDump)
	dump.Schema = d.int()
	dump.IntervalNS = d.varint()
	// A point costs at least 4 bytes: its timestamp varint plus the
	// snapshot's schema and two counts.
	if n := d.uvarint(); d.need(n, 4) && n > 0 {
		dump.Points = make([]telemetry.HistoryPoint, n)
		for i := range dump.Points {
			dump.Points[i] = telemetry.HistoryPoint{AtNS: d.varint(), Snap: d.metricsSnapshot()}
		}
	}
	return dump
}

// repairStatus decodes the repair column, the inverse of appendRepairStatus.
func (d *bdec) repairStatus() *repair.Status {
	s := new(repair.Status)
	s.Enabled = d.bool()
	s.Rounds = d.varint()
	s.Messages = d.varint()
	s.LastFaults = d.varint()
	s.LastHeals = d.varint()
	s.LastUnhealed = d.varint()
	s.Faults = d.tallies()
	s.Heals = d.tallies()
	return s
}

// traces decodes the traces column, the inverse of appendTraces.
func (d *bdec) traces() *TracesColumn {
	t := &TracesColumn{Total: d.u64()}
	if n := d.uvarint(); d.need(n, 12) && n > 0 {
		t.Traces = make([]trace.Trace, n)
		for i := range t.Traces {
			t.Traces[i] = trace.Trace{TraceID: d.u64(), Key: d.path(),
				Found: d.bool(), Messages: d.int(), Backtracks: d.int(),
				Spans: d.spans()}
		}
	}
	return t
}

// Fused points *m at a new message and returns a payload P cut from the same
// allocation. Whoever makes a message makes its payload with it and the two
// die together, so a message costs one object, not two; the caller sets Kind,
// From and the payload pointer that goes with them.
func Fused[P any](m **Message) *P { return claim(new(fused[P]), m) }

// fused is a message with its payload, as Fused allocates them.
type fused[P any] struct {
	m Message
	p P
}

// claim points *m at x's message and returns x's payload.
func claim[P any](x *fused[P], m **Message) *P {
	*m = &x.m
	return &x.p
}

// Room is where a server decodes a request and answers it, reused from one
// request to the next: a KindQuery, or a KindInfo carrying a rider, is decoded
// into the room (RawFrame.Decode), its keys and names cut from the room's bytes,
// and answered in the room (QueryReq.Answer, InfoReq.Answer), a scan into a
// slice from scanPool (InfoAnswer.Scan). The room holds one object per kind,
// made the first time that kind is decoded into it. Once the reply is written
// the server clears the room; nothing a handler, a layer or a recorder keeps
// may point into it: what one keeps of a key it copies, and a query is
// forwarded in a call of its own (Forward). The zero Room is empty.
type Room struct {
	q *fused[routedQuery]
	i *fused[infoRider]
}

// Clear zeroes the requests in r, their answers and the bytes their keys and
// names were cut from — a string kept past the reply reads as NUL bytes — and
// gives the slice a scan answered in back to scanPool, emptied.
func (r *Room) Clear() {
	if r.q != nil {
		*r.q = fused[routedQuery]{}
	}
	if r.i != nil {
		if a := &r.i.p.ans; a.buf != nil {
			if a.Resp.Scanned != nil && a.Scanned.Entries != nil {
				*a.buf = a.Scanned.Entries // the same slice, grown if the scan outgrew it
			}
			clear(*a.buf) // the entries point into a store that may evict them
			if cap(*a.buf)*int(unsafe.Sizeof(store.Entry{})) <= maxPooledBuf {
				*a.buf = (*a.buf)[:0]
				scanPool.Put(a.buf)
			}
		}
		*r.i = fused[infoRider]{}
	}
}

// query points *m at the message a KindQuery is decoded into and returns its
// payload: r's, made the first time, or a new one for a nil r.
func (r *Room) query(m **Message) *routedQuery {
	if r == nil {
		return Fused[routedQuery](m)
	}
	if r.q == nil {
		r.q = new(fused[routedQuery])
	}
	return claim(r.q, m)
}

// rider is query for a KindInfo carrying a rider; a room's answer takes a
// slice from scanPool to scan into.
func (r *Room) rider(m **Message) *infoRider {
	if r == nil {
		return Fused[infoRider](m)
	}
	if r.i == nil {
		r.i = new(fused[infoRider])
	}
	x := claim(r.i, m)
	x.ans.buf = scanPool.Get().(*[]store.Entry)
	return x
}

// scanPool holds the slices rooms' answers scan into. It is shared by every
// room of every server, so it holds about as many as are being answered at
// once; a slice past maxPooledBuf is dropped, as bufPool drops a buffer.
var scanPool = sync.Pool{New: func() any { return new([]store.Entry) }}

// Forward makes a call of its own to forward q in with the routed key rest, a
// tail of q's, and returns it with the routed key and the read to fill it
// with: copies of rest and of q's read, cut from the call's room as keyName
// cuts a decoded pair (one allocation more where they do not fit). A forward
// is made neither in nor from the Room q may have been decoded into, which is
// cleared and reused once q's reply is written, because whoever carries a
// call may keep it: a transport wrapper that samples what it carries does.
func Forward(q *QueryReq, rest bitpath.Path) (*QueryCall, bitpath.Path, *GetReq) {
	c := new(QueryCall)
	r := q.Read
	if r == nil {
		return c, bitpath.Path(c.keep(string(rest))), nil
	}
	// The routed key is the read key's tail on every query a node routes
	// (Node.badRequest refuses any other), so it is cut from the read's copy.
	s := c.keep(string(r.Key), r.Name)
	n := len(r.Key)
	c.read = GetReq{Key: bitpath.Path(s[:n]), Name: s[n:]}
	return c, c.read.Key[n-len(rest):], &c.read
}

// keep copies parts end to end into c's room where they fit, into an
// allocation of their own where they do not, and returns them as one string.
// Forward calls it once on a call it has just made, so the room is written
// before the string exists and never again.
func (c *QueryCall) keep(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b := c.pair[:0]
	if n > len(c.pair) {
		b = make([]byte, 0, n)
	}
	for _, p := range parts {
		b = append(b, p...)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// routedQuery is a QueryReq with what it may point to — every hop of a traced,
// read-carrying query decodes all three — and the room its handler answers in
// (QueryReq.Answer): the request, its read's key and name and the reply are
// one object.
type routedQuery struct {
	q    QueryReq
	r    GetReq
	c    trace.SpanContext
	pair pairRoom
	ans  QueryAnswer
}

// foundAnswer is a QueryResp, getOne a GetReq and gotOne a GetResp with room
// for the pair each may carry; applyOne is an ApplyReq with room for the one
// entry most applies carry and its pair, infoRider an InfoReq with the
// operation it carries and the room its handler answers in (InfoReq.Answer),
// and exchangeSnapshot an ExchangeReq with room for the link state: each
// decodes as one object.
type foundAnswer struct {
	r    QueryResp
	pair pairRoom
}

type getOne struct {
	g    GetReq
	pair pairRoom
}

type gotOne struct {
	g    GetResp
	pair pairRoom
}

type applyOne struct {
	a    ApplyReq
	e    [1]store.Entry
	pair pairRoom
}

type infoRider struct {
	i    InfoReq
	a    applyOne
	s    ScanReq
	held [MaxHeld]uint64
	ans  InfoAnswer
}

type exchangeSnapshot struct {
	e    ExchangeReq
	room LinkRoom
}

// decodeMessageBody decodes the envelope and payload of one binary frame, a
// KindQuery or a KindInfo carrying a rider into room (nil for an object of its
// own). Strict: the payload must be consumed exactly, unknown kinds and
// malformed fields are ErrCorrupt.
func decodeMessageBody(kind Kind, body []byte, room *Room) (*Message, error) {
	d := &bdec{b: body}
	from := d.addr()
	var m *Message
	switch kind {
	case KindQuery:
		if present, read := d.flags(); present {
			x := room.query(&m)
			x.q.answer = &x.ans
			// The routed key is the read key's tail (badRequest refuses any
			// other pair): it is cut from the read's string once that is decoded.
			packed, nbits := d.pathBits()
			x.q.Level = d.int()
			if d.bool() {
				x.c = trace.SpanContext{TraceID: d.u64(), Parent: d.u64(),
					Budget: d.int(), Sampled: d.bool()}
				x.q.Ctx = &x.c
			}
			if read {
				x.r.Key, x.r.Name = d.keyName(&x.pair)
				x.q.Read = &x.r
			}
			x.q.Key = pathIn(string(x.r.Key), len(x.r.Key)-nbits, packed, nbits)
			m.Query = &x.q
		}
	case KindQueryResp:
		if present, has := d.flags(); present {
			x := Fused[foundAnswer](&m)
			q := &x.r
			q.Found, q.Peer = d.bool(), d.addr()
			// A found entry's key starts with the path of the peer that holds
			// it: the path is cut from the entry's string once that is decoded.
			packed, nbits := d.pathBits()
			q.Messages, q.Backtracks, q.Spans, q.Has = d.int(), d.int(), d.spans(), has
			if has {
				q.Entry = d.entry(&x.pair)
			}
			q.Path = pathIn(string(q.Entry.Key), 0, packed, nbits)
			m.QueryResp = q
		}
	case KindExchange:
		if d.bool() {
			x := Fused[exchangeSnapshot](&m)
			x.e.Path = d.path()
			x.e.Refs, _ = d.refSets(false, &x.room)
			x.e.Depth = d.int()
			m.Exchange = &x.e
		}
	case KindExchangeResp:
		if d.bool() {
			e := Fused[ExchangeResp](&m)
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
		switch d.byte() {
		case 0:
		case flagPresent:
			x := Fused[applyOne](&m)
			x.e[0] = d.entry(&x.pair)
			x.a.Entries = x.e[:]
			m.Apply = &x.a
		case flagPresent | flagList:
			a := Fused[ApplyReq](&m)
			if a.Entries = d.entries(); len(a.Entries) < 2 {
				d.fail("apply list of fewer than two entries")
			}
			m.Apply = a
		default:
			d.fail("bad apply flags")
		}
	case KindApplyResp:
		if d.bool() {
			a := Fused[ApplyResp](&m)
			a.Changed = d.bool()
			m.ApplyResp = a
		}
	case KindGet:
		if d.bool() {
			x := Fused[getOne](&m)
			x.g.Key, x.g.Name = d.keyName(&x.pair)
			m.Get = &x.g
		}
	case KindGetResp:
		if d.bool() {
			x := Fused[gotOne](&m)
			x.g = GetResp{Entry: d.entry(&x.pair), Found: d.bool()}
			m.GetResp = &x.g
		}
	case KindInfo:
		// A rider closes the frame it rides on.
		if d.remaining() > 0 {
			x := room.rider(&m)
			x.i.answer = &x.ans
			switch d.byte() {
			case riderApply:
				x.a.e[0] = d.entry(&x.a.pair)
				x.a.a.Entries = x.a.e[:]
				x.i.Apply = &x.a.a
			case riderScan:
				x.s.Prefix = d.path()
				x.i.Scan = &x.s
			case riderScan | riderHeld:
				x.s.Prefix = d.path()
				x.s.Digested = true
				if n := d.uvarint(); n > MaxHeld {
					d.fail("more held digests than a scan names")
				} else if d.need(n, 8) && n > 0 {
					x.s.Held = x.held[:n]
					for j := range x.s.Held {
						x.s.Held[j] = d.u64()
					}
				}
				x.i.Scan = &x.s
			default:
				d.fail("bad info rider")
			}
			m.Info = &x.i
		}
	case KindInfoResp:
		var x *InfoAnswer
		switch f := d.byte(); f {
		case 0:
		case flagPresent, flagPresent | riderApply, flagPresent | riderScan,
			flagPresent | riderScan | riderHeld, flagPresent | riderSame:
			x = new(InfoAnswer)
			m = &x.Reply
			if f&riderApply != 0 {
				x.Resp.Applied = &x.Applied
			}
			if f&(riderScan|riderSame) != 0 {
				x.Resp.Scanned = &x.Scanned
				x.Scanned.Digested = f&(riderHeld|riderSame) != 0
				x.Scanned.Same = f&riderSame != 0
			}
		default:
			d.fail("bad info answer flags")
		}
		if x != nil {
			i := &x.Resp
			d.links(i, &x.Room)
			if i.Applied != nil {
				i.Applied.Changed = d.bool()
			}
			if s := i.Scanned; s != nil && s.Digested {
				s.Digest = d.u64()
			}
			if s := i.Scanned; s != nil && !s.Same {
				s.Entries = d.entries()
			}
			m.InfoResp = i
		}
	case KindScan:
		if d.bool() {
			s := Fused[ScanReq](&m)
			s.Prefix = d.path()
			m.Scan = s
		}
	case KindScanResp:
		if d.bool() {
			s := Fused[ScanResp](&m)
			s.Entries = d.entries()
			m.ScanResp = s
		}
	case KindError:
		m = &Message{Error: d.string()}
	case KindObserve:
		if d.bool() {
			o := Fused[ObserveReq](&m)
			asks := d.uvarint()
			if o.Asks = Ask(asks); asks > uint64(^Ask(0)) || !o.Asks.Valid() {
				d.fail("bad observe asks")
			}
			o.WindowNS, o.MaxPoints, o.TraceLimit = d.varint(), d.varint(), d.int()
			m.Observe = o
		}
	case KindObserveResp:
		if d.bool() {
			o := Fused[ObserveResp](&m)
			cols := d.uvarint()
			if cols&^uint64(columnAsks) != 0 {
				d.fail("bad observe columns")
			}
			c := Ask(cols)
			if c&AskLinks != 0 {
				o.Links = new(InfoResp)
				d.links(o.Links, nil)
			}
			if c&AskHealth != 0 {
				o.Health = d.healthColumn()
			}
			if c&AskMetrics != 0 {
				s := d.metricsSnapshot()
				o.Metrics = &s
			}
			if c&AskHistory != 0 {
				o.History = d.historyDump()
			}
			if c&AskRepair != 0 {
				o.Repair = d.repairStatus()
			}
			if c&AskTraces != 0 {
				o.Traces = d.traces()
			}
			m.ObserveResp = o
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(kind))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v payload", ErrCorrupt, len(d.b)-d.off, kind)
	}
	if m == nil {
		m = new(Message)
	}
	m.Kind, m.From = kind, from
	return m, nil
}
