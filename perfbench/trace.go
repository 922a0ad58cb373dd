package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
)

// span is one timed call the benchmark made into a layer of the system.
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Ref    int64  `json:"ref"` // batch or query id, -1 when none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory until the run ends.
// A nil recorder records nothing, so untraced runs pay one nil check per
// call.
type recorder struct {
	t0   time.Time
	next atomic.Int64
	off  atomic.Bool
	// cur is the span that fabric and WAL calls made right now belong to:
	// the batch being applied by a closed-loop writer, else the window.
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder that records nothing until resume.
func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.off.Store(true)
	return r
}

// begin opens a span and returns its id and the function that closes it.
func (r *recorder) begin(name string, parent, ref int64) (int64, func()) {
	if r == nil || r.off.Load() {
		return 0, func() {}
	}
	id := r.next.Add(1)
	start := time.Since(r.t0).Nanoseconds()
	return id, func() {
		end := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: start, End: end})
		r.mu.Unlock()
	}
}

// child opens a span under the current span.
func (r *recorder) child(name string) func() {
	if r == nil {
		return func() {}
	}
	_, end := r.begin(name, r.cur.Load(), -1)
	return end
}

// resume records from now on: a timed window starts.
func (r *recorder) resume() {
	if r != nil {
		r.off.Store(false)
	}
}

// stop pauses recording at the end of a timed window, so set-up, oracles
// and probes leave no spans.
func (r *recorder) stop() {
	if r != nil {
		r.off.Store(true)
	}
}

// setCur makes id the parent of fabric and WAL spans from now on.
func (r *recorder) setCur(id int64) {
	if r != nil {
		r.cur.Store(id)
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children's spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv[0], at), min(iv[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fabric operations the tracing wrapper counts and times.
const (
	opPut = iota
	opGet
	opMerge
	opOffer
	opPatch
	opGetEnc
	opPutEnc
	opJoin
	numOps
)

var opNames = [numOps]string{"put", "get", "merge", "offer", "patch", "get_enc", "put_enc", "join"}

// tracedFabric counts and times the data-plane calls the system makes
// through a cluster.Fabric. Build it with wrapFabric, never directly.
type tracedFabric struct {
	inner cluster.Fabric
	rec   *recorder
	calls [numOps]atomic.Int64
	nanos [numOps]atomic.Int64
}

// reset zeroes the counters at the start of the timed window.
func (f *tracedFabric) reset() {
	for op := range f.calls {
		f.calls[op].Store(0)
		f.nanos[op].Store(0)
	}
}

func (f *tracedFabric) time(op int) func() {
	start := time.Now()
	end := f.rec.child("fabric." + opNames[op])
	return func() {
		f.calls[op].Add(1)
		f.nanos[op].Add(int64(time.Since(start)))
		end()
	}
}

func (f *tracedFabric) Put(node int, name string, ch *array.Chunk) error {
	defer f.time(opPut)()
	return f.inner.Put(node, name, ch)
}

func (f *tracedFabric) Get(node int, name string, key array.ChunkKey) (*array.Chunk, error) {
	defer f.time(opGet)()
	return f.inner.Get(node, name, key)
}

func (f *tracedFabric) Merge(node int, name string, src *array.Chunk, spec cluster.MergeSpec) error {
	defer f.time(opMerge)()
	return f.inner.Merge(node, name, src, spec)
}

func (f *tracedFabric) Has(node int, name string, key array.ChunkKey) (bool, error) {
	return f.inner.Has(node, name, key)
}

func (f *tracedFabric) Delete(node int, name string, key array.ChunkKey) (bool, error) {
	return f.inner.Delete(node, name, key)
}

func (f *tracedFabric) Keys(node int, name string) ([]array.ChunkKey, error) {
	return f.inner.Keys(node, name)
}

func (f *tracedFabric) DropArray(node int, name string) (int, error) {
	return f.inner.DropArray(node, name)
}

func (f *tracedFabric) Stats(node int) (cluster.FabricStats, error) { return f.inner.Stats(node) }
func (f *tracedFabric) NumNodes() int                               { return f.inner.NumNodes() }
func (f *tracedFabric) Close() error                                { return f.inner.Close() }

// joinPart, wirePart and registerPart carry the optional capabilities of
// the inner fabric; wrapFabric embeds exactly the ones the inner fabric
// has, so the system's type assertions see the same fabric either way.
type joinPart struct {
	f *tracedFabric
	j cluster.JoinFabric
}

func (p joinPart) ExecuteJoin(node int, req cluster.JoinRequest) ([]*array.Chunk, error) {
	defer p.f.time(opJoin)()
	return p.j.ExecuteJoin(node, req)
}

type wirePart struct {
	f *tracedFabric
	w cluster.WireFabric
}

func (p wirePart) OfferBatch(node int, items []cluster.WireItem) ([]bool, error) {
	defer p.f.time(opOffer)()
	return p.w.OfferBatch(node, items)
}

func (p wirePart) Patch(node int, name string, key array.ChunkKey, baseHash uint64, delta []byte, fullSize int64) (bool, error) {
	defer p.f.time(opPatch)()
	return p.w.Patch(node, name, key, baseHash, delta, fullSize)
}

func (p wirePart) GetEncodedBatch(node int, items []cluster.WireItem) ([][]byte, error) {
	defer p.f.time(opGetEnc)()
	return p.w.GetEncodedBatch(node, items)
}

func (p wirePart) PutEncodedBatch(node int, items []cluster.WireItem) error {
	defer p.f.time(opPutEnc)()
	return p.w.PutEncodedBatch(node, items)
}

// viewRegistrar is the capability maintain and stream probe for to ship
// the view definition to the nodes before pushing joins down.
type viewRegistrar interface {
	RegisterView(*view.Definition) error
}

type registerPart struct{ r viewRegistrar }

func (p registerPart) RegisterView(def *view.Definition) error { return p.r.RegisterView(def) }

// wrapFabric returns a tracing wrapper over inner that advertises exactly
// inner's optional capabilities (join pushdown, the wire protocol, view
// registration), plus the counters it fills.
func wrapFabric(inner cluster.Fabric, rec *recorder) (cluster.Fabric, *tracedFabric) {
	t := &tracedFabric{inner: inner, rec: rec}
	j, isJ := inner.(cluster.JoinFabric)
	w, isW := inner.(cluster.WireFabric)
	r, isR := inner.(viewRegistrar)
	jp, wp, rp := joinPart{t, j}, wirePart{t, w}, registerPart{r}
	switch {
	case isJ && isW && isR:
		return struct {
			*tracedFabric
			joinPart
			wirePart
			registerPart
		}{t, jp, wp, rp}, t
	case isJ && isW:
		return struct {
			*tracedFabric
			joinPart
			wirePart
		}{t, jp, wp}, t
	case isJ && isR:
		return struct {
			*tracedFabric
			joinPart
			registerPart
		}{t, jp, rp}, t
	case isW && isR:
		return struct {
			*tracedFabric
			wirePart
			registerPart
		}{t, wp, rp}, t
	case isJ:
		return struct {
			*tracedFabric
			joinPart
		}{t, jp}, t
	case isW:
		return struct {
			*tracedFabric
			wirePart
		}{t, wp}, t
	case isR:
		return struct {
			*tracedFabric
			registerPart
		}{t, rp}, t
	default:
		return t, t
	}
}

// walTiming counts and times the file traffic of a durable store.
type walTiming struct {
	rec                    *recorder
	syncCalls, syncNanos   atomic.Int64
	writeBytes, writeNanos atomic.Int64
}

func (t *walTiming) reset() {
	t.syncCalls.Store(0)
	t.syncNanos.Store(0)
	t.writeBytes.Store(0)
	t.writeNanos.Store(0)
}

func (t *walTiming) sync() func() {
	start := time.Now()
	end := t.rec.child("wal.sync")
	return func() {
		t.syncCalls.Add(1)
		t.syncNanos.Add(int64(time.Since(start)))
		end()
	}
}

// timedFS wraps a wal.FS, timing every fsync (files and directories) and
// every write.
type timedFS struct {
	wal.FS
	t *walTiming
}

func (fs timedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{f, fs.t}, nil
}

func (fs timedFS) SyncDir(name string) error {
	defer fs.t.sync()()
	return fs.FS.SyncDir(name)
}

type timedFile struct {
	wal.File
	t *walTiming
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	end := f.t.rec.child("wal.write")
	n, err := f.File.Write(p)
	f.t.writeBytes.Add(int64(n))
	f.t.writeNanos.Add(int64(time.Since(start)))
	end()
	return n, err
}

func (f timedFile) Sync() error {
	defer f.t.sync()()
	return f.File.Sync()
}
