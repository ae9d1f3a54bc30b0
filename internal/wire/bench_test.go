package wire

import (
	"bytes"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

func benchMessage() *Message {
	return &Message{
		Kind: KindExchange,
		From: 7,
		Exchange: &ExchangeReq{
			Path: bitpath.MustParse("0101101001"),
			Refs: []RefSet{
				{Addrs: []addr.Addr{1, 2, 3, 4, 5}},
				{Addrs: []addr.Addr{6, 7, 8}},
				{Addrs: []addr.Addr{9}},
			},
			Depth: 1,
		},
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	m := benchMessage()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, uint32(i), 0, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrame(b *testing.B) {
	frame, err := AppendFrame(nil, 1, 0, benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}
