package transport

import (
	"bytes"
	"strings"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// frameBytes encodes one message to a full frame, optionally compressed.
func frameBytes(tb testing.TB, m *Message, compressMin int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, _, err := WriteMessageOpt(&buf, m, compressMin); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadMessage throws arbitrary byte streams at the frame decoder.
// Malformed, truncated, and corrupt-compressed frames must error cleanly;
// any frame that decodes must survive a write/read round trip unchanged.
func FuzzReadMessage(f *testing.F) {
	seeds := []*Message{
		{Type: MsgPing},
		{Type: MsgPutChunk, Array: "alpha", Chunk: []byte("chunk-bytes")},
		{Type: MsgGetChunk, Array: "alpha", Key: array.ChunkKey("0,0")},
		{Type: MsgPatchChunk, Array: "v", Key: array.ChunkKey("1,2"), Hash: 0xDEADBEEF, Chunk: []byte("delta")},
		{Type: MsgOfferBatch, Items: []cluster.WireItem{
			{Array: "alpha", Key: array.ChunkKey("0,0"), Hash: 7, Size: 64},
			{Array: "beta", Key: array.ChunkKey("1,1"), Hash: 9, Size: 128},
		}},
		{Type: MsgPutBatch, Items: []cluster.WireItem{
			{Array: "alpha", Key: array.ChunkKey("0,0"), Data: []byte("payload")},
		}},
		{Type: MsgBoolList, Flags: []bool{true, false, true}},
		{Type: MsgErr, Err: "boom"},
		{Type: MsgSnapshotReply, Spec: []byte(`{"Epoch":3,"Pins":1,"Adaptive":{"Deferred":2}}`)},
	}
	for _, m := range seeds {
		f.Add(frameBytes(f, m, 0))
	}
	// A genuinely compressed frame: a long repetitive payload beats the
	// deflate overhead, so the compressed branch is in the seed corpus.
	long := &Message{Type: MsgPutChunk, Array: "alpha", Chunk: []byte(strings.Repeat("abcdabcd", 200))}
	compressed := frameBytes(f, long, 1)
	if compressed[4]&flagCompressed == 0 {
		f.Fatal("seed frame did not compress")
	}
	f.Add(compressed)
	// Corrupt variants: flipped type byte, truncated body, mangled deflate.
	badType := append([]byte(nil), compressed...)
	badType[4] ^= 0x13
	f.Add(badType)
	f.Add(compressed[:len(compressed)-3])
	badDeflate := append([]byte(nil), compressed...)
	badDeflate[len(badDeflate)/2] ^= 0xFF
	f.Add(badDeflate)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, raw, wire, err := ReadMessageOpt(bytes.NewReader(data))
		if err != nil {
			return
		}
		if wire > len(data) || raw < 1 {
			t.Fatalf("implausible sizes: raw %d, wire %d from %d input bytes", raw, wire, len(data))
		}
		// Round trip: whatever decoded must re-encode and decode to an
		// identical message, with and without compression.
		for _, cm := range []int{0, 1} {
			var buf bytes.Buffer
			if _, _, err := WriteMessageOpt(&buf, m, cm); err != nil {
				t.Fatalf("re-encode (compressMin=%d): %v", cm, err)
			}
			m2, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("re-decode (compressMin=%d): %v", cm, err)
			}
			if !equalMessages(m, m2) {
				t.Fatalf("round trip mismatch (compressMin=%d):\n in: %+v\nout: %+v", cm, m, m2)
			}
		}
	})
}
