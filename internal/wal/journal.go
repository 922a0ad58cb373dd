package wal

import (
	"fmt"
	"strings"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/obs"
)

// segRef addresses one chunk body inside a segment file.
type segRef struct{ off, size int64 }

// journal is one worker node's durable log: a segment file of deduplicated
// ACH1 chunk bodies plus a WAL of framed put/delete/drop records, both
// append-only. It implements storage.Journal; the owning store invokes it
// under the store lock, so appends are strictly in apply order. Scratch
// ("#") namespaces — staging, per-batch deltas — are transient by design
// and are skipped entirely.
//
// At a checkpoint the Durable owner swaps the underlying files via reset;
// the journal object itself stays installed on the store for its lifetime.
type journal struct {
	node     int
	counters *obs.DurableCounters

	// Guarded by mu (the store lock serializes mutations, but checkpoint
	// swaps and barrier syncs come from the Durable goroutine).
	mu     chan struct{} // 1-buffered semaphore; avoids copying a sync.Mutex on reset
	seg    File
	wal    File
	segOff int64
	walOff int64
	dedup  map[uint64]segRef
	dirty  bool
	// failed latches a torn WAL append: partial record bytes make every
	// later append unreadable to replay, so the journal fail-stops (every
	// operation and sync errors) until a checkpoint swaps in fresh files.
	// A torn segment write is recoverable in place — the partial body is
	// simply never referenced — so it does not latch.
	failed error
	// baseSeg/baseWal are the offsets right after the last checkpoint, so
	// growth() measures log bytes accumulated since.
	baseSeg, baseWal int64
}

func newJournal(node int, counters *obs.DurableCounters) *journal {
	j := &journal{node: node, counters: counters, mu: make(chan struct{}, 1)}
	j.mu <- struct{}{}
	return j
}

func (j *journal) lock()   { <-j.mu }
func (j *journal) unlock() { j.mu <- struct{}{} }

// reset installs fresh (empty, just-created) segment and WAL files,
// closing any previous pair. Used at open and at every checkpoint swap.
func (j *journal) reset(seg, wal File) error {
	j.lock()
	defer j.unlock()
	var firstErr error
	for _, f := range []File{j.seg, j.wal} {
		if f != nil {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	j.seg, j.wal = seg, wal
	j.segOff, j.walOff = 0, 0
	j.baseSeg, j.baseWal = 0, 0
	j.dedup = make(map[uint64]segRef)
	j.dirty = false
	j.failed = nil
	return firstErr
}

// markBase records the current offsets as the checkpoint base.
func (j *journal) markBase() {
	j.lock()
	j.baseSeg, j.baseWal = j.segOff, j.walOff
	j.unlock()
}

// durableArray reports whether mutations of the named array are journaled.
// Scratch namespaces (any name containing "#": staging, per-batch deltas)
// never survive a restart — recovery starts them empty, matching the
// cleanup semantics of the commit protocol.
func durableArray(name string) bool { return !strings.Contains(name, "#") }

// appendRec frames and appends one record to the WAL. Caller holds j.mu.
func (j *journal) appendRec(r journalRec) error {
	buf := appendFrame(nil, encodeJournalRec(r))
	n, err := j.wal.Write(buf)
	j.walOff += int64(n) // track partial bytes too: they are in the file
	if err != nil {
		j.failed = fmt.Errorf("wal: node %d journal torn at %d: %w", j.node, j.walOff, err)
		return j.failed
	}
	j.dirty = true
	j.counters.WALBytes.Add(int64(len(buf)))
	return nil
}

// JournalPut logs an install of enc under (arrayName, key). The body is
// written to the segment file unless an identical content hash was already
// written there (content-addressed dedup, as on the wire).
func (j *journal) JournalPut(arrayName string, key array.ChunkKey, enc []byte, hash uint64) error {
	if !durableArray(arrayName) {
		return nil
	}
	j.lock()
	defer j.unlock()
	if j.failed != nil {
		return j.failed
	}
	ref, ok := j.dedup[hash]
	if !ok || ref.size != int64(len(enc)) {
		off := j.segOff
		n, err := j.seg.Write(enc)
		j.segOff += int64(n) // a torn body stays in the file, unreferenced
		if err != nil {
			return fmt.Errorf("wal: node %d segment append: %w", j.node, err)
		}
		ref = segRef{off: off, size: int64(len(enc))}
		j.dedup[hash] = ref
		j.dirty = true
		j.counters.SegBytes.Add(int64(len(enc)))
	}
	return j.appendRec(journalRec{kind: recPut, array: arrayName, key: key, hash: hash, off: ref.off, size: ref.size})
}

// JournalDelete logs an eviction.
func (j *journal) JournalDelete(arrayName string, key array.ChunkKey) error {
	if !durableArray(arrayName) {
		return nil
	}
	j.lock()
	defer j.unlock()
	if j.failed != nil {
		return j.failed
	}
	return j.appendRec(journalRec{kind: recDelete, array: arrayName, key: key})
}

// JournalDropArray logs a whole-array drop.
func (j *journal) JournalDropArray(arrayName string) error {
	if !durableArray(arrayName) {
		return nil
	}
	j.lock()
	defer j.unlock()
	if j.failed != nil {
		return j.failed
	}
	return j.appendRec(journalRec{kind: recDropArray, array: arrayName})
}

// sync fsyncs the segment then the WAL (in that order: a synced WAL record
// must never reference unsynced segment bytes) and returns the WAL cut —
// the offset up to which a barrier may declare this journal replayable.
func (j *journal) sync() (cut int64, err error) {
	j.lock()
	defer j.unlock()
	if j.failed != nil {
		return 0, j.failed
	}
	if j.dirty {
		if err := j.seg.Sync(); err != nil {
			return 0, fmt.Errorf("wal: node %d segment fsync: %w", j.node, err)
		}
		if err := j.wal.Sync(); err != nil {
			return 0, fmt.Errorf("wal: node %d journal fsync: %w", j.node, err)
		}
		j.counters.Syncs.Add(2)
		j.dirty = false
	}
	return j.walOff, nil
}

// growth returns log bytes appended since the last checkpoint.
func (j *journal) growth() int64 {
	j.lock()
	defer j.unlock()
	return (j.segOff - j.baseSeg) + (j.walOff - j.baseWal)
}

// close closes the underlying files (syncing first). A sync failure is
// still followed by the closes — and surfaced, not swallowed.
func (j *journal) close() error {
	_, firstErr := j.sync()
	j.lock()
	defer j.unlock()
	for _, f := range []File{j.seg, j.wal} {
		if f != nil {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: node %d close: %w", j.node, err)
			}
		}
	}
	j.seg, j.wal = nil, nil
	return firstErr
}

// replayJournal reconstructs one node's durable chunks from its WAL and
// segment file, applying records strictly up to cut and verifying every
// chunk body against its recorded content hash. The result maps store
// keys (arrayName, key) to their canonical encodings.
func replayJournal(walData, segData []byte, cut int64) (map[string]map[array.ChunkKey][]byte, error) {
	chunks := make(map[string]map[array.ChunkKey][]byte)
	var replayErr error
	var reached int64
	valid := frames(walData, func(payload []byte, end int64) bool {
		if end > cut {
			return false
		}
		reached = end
		r, err := decodeJournalRec(payload)
		if err != nil {
			replayErr = err
			return false
		}
		switch r.kind {
		case recPut:
			// Compare without adding: off+size overflows for hostile refs.
			if r.off < 0 || r.size < 0 || r.off > int64(len(segData)) || r.size > int64(len(segData))-r.off {
				replayErr = fmt.Errorf("wal: segment ref %d+%d beyond %d bytes", r.off, r.size, len(segData))
				return false
			}
			body := segData[r.off : r.off+r.size]
			if array.HashChunkBytes(body) != r.hash {
				replayErr = fmt.Errorf("wal: segment body of %s/%x fails content-hash check", r.array, string(r.key))
				return false
			}
			byArr, ok := chunks[r.array]
			if !ok {
				byArr = make(map[array.ChunkKey][]byte)
				chunks[r.array] = byArr
			}
			byArr[r.key] = body
		case recDelete:
			delete(chunks[r.array], r.key)
		case recDropArray:
			delete(chunks, r.array)
		default:
			replayErr = fmt.Errorf("wal: unknown journal record kind %d", r.kind)
			return false
		}
		return true
	})
	if replayErr != nil {
		return nil, replayErr
	}
	// The cut was declared durable by a synced meta record, so the journal
	// must hold intact records through it; stopping short means the log
	// was corrupted inside its committed prefix.
	if reached < cut {
		return nil, fmt.Errorf("wal: journal valid to %d, committed cut %d (valid prefix %d)", reached, cut, valid)
	}
	return chunks, nil
}
