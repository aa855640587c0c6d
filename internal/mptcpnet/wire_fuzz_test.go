package mptcpnet

import (
	"testing"
)

// FuzzDecodeFrame pins the property the chaos corruption injector relies
// on: decoding arbitrary bytes never panics, and anything unmarshal does
// accept is internally consistent (a sealed frame whose declared payload
// fits the datagram). Run `go test -fuzz=FuzzDecodeFrame ./internal/mptcpnet`
// to explore beyond the seed corpus.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: a sealed frame of every segment type, of the
	// end-of-stream data segment and of a type and flags nobody sends,
	// each also truncated; an unsealed frame, and junk.
	for _, tf := range [][2]byte{{typeData, 0}, {typeAck, flagSack}, {typeProbe, 0}, {typeData, flagFin}, {0xff, 0xff}} {
		h := header{
			Type: tf[0], Flags: tf[1], Subflow: 2, ConnID: 424242,
			Seq: 1 << 40, DataSeq: 77, Aux: -1, Window: 512, Echo: 12345,
			Plen: 16,
		}
		frame := make([]byte, headerSize+16)
		h.marshal(frame)
		for i := headerSize; i < len(frame); i++ {
			frame[i] = byte(i)
		}
		sealFrame(frame)
		f.Add(frame)
		f.Add(frame[:headerSize-1])
	}
	unsealed := make([]byte, headerSize)
	(&header{Type: typeData}).marshal(unsealed)
	f.Add(unsealed)
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h header
		if err := h.unmarshal(data); err != nil {
			return // rejected, fine — the property is "never panics"
		}
		if len(data) < headerSize {
			t.Fatalf("accepted a %d-byte datagram, header needs %d", len(data), headerSize)
		}
		if int(h.Plen) > len(data)-headerSize {
			t.Fatalf("accepted Plen %d beyond datagram of %d bytes", h.Plen, len(data))
		}
	})
}
