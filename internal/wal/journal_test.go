package wal

import (
	"testing"

	"github.com/arrayview/arrayview/internal/array"
)

// journalOf frames the records into WAL bytes, as the journal writes them.
func journalOf(recs ...journalRec) []byte {
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, encodeJournalRec(r))
	}
	return buf
}

// A CRC-valid put whose segment reference overflows int64 when off and
// size are added must fail replay with an error, not a slice panic.
func TestReplayJournalRejectsOverflowingSegmentRef(t *testing.T) {
	seg := []byte("segment body")
	for _, ref := range []struct{ off, size int64 }{
		{1 << 62, 1 << 62},
		{1, 1<<63 - 1},
		{int64(len(seg)), 1},
		{0, int64(len(seg)) + 1},
	} {
		wal := journalOf(journalRec{kind: recPut, array: "A", key: "k", off: ref.off, size: ref.size})
		if _, err := replayJournal(wal, seg, int64(len(wal))); err == nil {
			t.Errorf("segment ref %d+%d over %d bytes replayed cleanly", ref.off, ref.size, len(seg))
		}
	}
}

// FuzzReplayJournal feeds arbitrary WAL bytes, segment bytes, and cut to
// journal replay: corrupt input must error, never panic, and every chunk
// body replay returns must lie inside the segment.
func FuzzReplayJournal(f *testing.F) {
	body := []byte("chunk body bytes")
	seg := append([]byte("pad:"), body...)
	put := journalRec{kind: recPut, array: "A", key: array.ChunkKey("0,0"),
		hash: array.HashChunkBytes(body), off: 4, size: int64(len(body))}
	valid := journalOf(put,
		journalRec{kind: recDelete, array: "A", key: array.ChunkKey("0,0")},
		put,
		journalRec{kind: recDropArray, array: "B"})
	f.Add(valid, seg, int64(len(valid)))
	f.Add(valid, seg, int64(len(valid)/2))
	f.Add(valid, seg[:8], int64(len(valid)))
	f.Add(journalOf(journalRec{kind: recPut, array: "A", key: "k", off: 1 << 62, size: 1 << 62}), seg, int64(1<<20))
	f.Add(journalOf(journalRec{kind: 9, array: "A", key: "k"}), seg, int64(64))

	f.Fuzz(func(t *testing.T, walData, segData []byte, cut int64) {
		chunks, err := replayJournal(walData, segData, cut)
		if err != nil {
			return
		}
		for _, byKey := range chunks {
			for _, b := range byKey {
				if len(b) > len(segData) {
					t.Fatalf("replayed body of %d bytes from a %d-byte segment", len(b), len(segData))
				}
			}
		}
	})
}
