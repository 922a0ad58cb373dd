package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

// Fixed benchmark constants, chosen once by calibrating on the commit that
// introduced the benchmark. BENCHMARK.json records the serve ones.
const (
	// setupReps is how many times each part sets its workload up; setup_s
	// is the median and the last set-up is the one measured.
	setupReps = 3
	// recover_s is the mean over a part's restore points of the median of
	// restoreReps restores at each: the median drops host noise, the mean
	// keeps the cost that differs from point to point. ingest restores at
	// crashPoints points spread over its window; serve and revisit
	// rebuild one final state, in rebuildBlocks blocks.
	crashPoints   = 5
	rebuildBlocks = 3
	restoreReps   = 3
	// probeQueries is how many view reads each part spreads over its
	// restores, in the workloads that send no queries while they write.
	probeQueries = 30
	// queryLimit is the latency limit goodput_qps counts against.
	queryLimit = time.Second
)

// parts is how many independently seeded datasets a run splits its work
// over. Each field pool or hot pointing sits differently on the nodes'
// chunk bands, which moves a whole run's latencies by up to a fifth;
// pooling the samples of several datasets averages that out.
const parts = 4

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workdir holds temporary data and the span files.
	workdir string
	// tiny shrinks the data and the run to test size.
	tiny bool
}

// spec is the PTF-5 configuration every workload generates its data from:
// bench.DefaultSpec (8 nodes, 2 workers each, the paper's chunk geometry)
// with the run's seed.
func (c config) spec() bench.Spec {
	s := bench.DefaultSpec(bench.PTF5, workload.Real)
	if c.tiny {
		s = bench.SmallSpec(bench.PTF5, workload.Real)
	}
	s.PTF.Seed = c.seed
	return s
}

// newLocalCluster builds the spec's in-process cluster. With a recorder
// its fabric is wrapped for tracing, over node stores wired exactly as
// cluster.New wires its default LocalFabric.
func newLocalCluster(spec bench.Spec, rec *recorder) (*cluster.Cluster, *tracedFabric, error) {
	if rec == nil {
		cl, err := spec.Cluster()
		return cl, nil, err
	}
	stores := make([]*storage.Store, spec.Nodes)
	for i := range stores {
		stores[i] = storage.NewStore()
	}
	fab, tf := wrapFabric(cluster.NewLocalFabric(stores), rec)
	cl, err := cluster.New(spec.Nodes, cluster.WithWorkersPerNode(spec.Workers), cluster.WithFabric(fab))
	if err != nil {
		return nil, nil, err
	}
	for i, s := range stores {
		cl.Node(i).Store = s
	}
	return cl, tf, nil
}

// newTCPCluster builds the spec's cluster over loopback node daemons. The
// returned function closes the fabric and stops the daemons.
func newTCPCluster(spec bench.Spec, rec *recorder) (*cluster.Cluster, *tracedFabric, func(), error) {
	lc, err := transport.StartLoopback(spec.Nodes, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	tcp, err := lc.Fabric(transport.DefaultClientConfig())
	if err != nil {
		lc.Close()
		return nil, nil, nil, err
	}
	stop := func() { tcp.Close(); lc.Close() }
	var fab cluster.Fabric = tcp
	var tf *tracedFabric
	if rec != nil {
		fab, tf = wrapFabric(tcp, rec)
	}
	cl, err := cluster.New(spec.Nodes, cluster.WithWorkersPerNode(spec.Workers), cluster.WithFabric(fab))
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	return cl, tf, stop, nil
}

// loadView loads the base array and builds the view on a cluster.
func loadView(cl *cluster.Cluster, spec bench.Spec, data *workload.Dataset, p cluster.Placement) (*view.Definition, error) {
	def, err := spec.ViewFor(data)
	if err != nil {
		return nil, err
	}
	if err := cl.LoadArray(data.Base, p); err != nil {
		return nil, err
	}
	if err := maintain.BuildView(cl, def, p); err != nil {
		return nil, err
	}
	return def, nil
}

// setupTimes runs build setupReps times, tearing down every set-up but the
// last, and returns each set-up's time.
func setupTimes(build func() (teardown func(), err error)) ([]float64, func(), error) {
	var secs []float64
	teardown := func() {}
	for i := 0; i < setupReps; i++ {
		teardown()
		runtime.GC()
		t0 := time.Now()
		td, err := build()
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		teardown = td
	}
	return secs, teardown, nil
}

// unionOf returns base with every batch's cells inserted.
func unionOf(base *array.Array, batches []*array.Array) (*array.Array, error) {
	out := base.Clone()
	for _, b := range batches {
		var err error
		b.EachChunk(func(c *array.Chunk) bool {
			err = out.MergeChunk(c)
			return err == nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shapeDef is the view definition with its join shape replaced: the
// single-node definition a query of that shape evaluates.
func shapeDef(def *view.Definition, sh *shape.Shape) (*view.Definition, error) {
	return view.NewDefinition(def.Name, def.Alpha, def.Beta, simjoin.NewPred(sh, def.Pred.Mapping),
		def.GroupBy, def.Aggs, def.Chunking)
}

// checkFinal compares a cluster's base and view against the single-node
// from-scratch evaluation over want (the base with every committed batch).
func checkFinal(o *outcome, label string, cl *cluster.Cluster, def *view.Definition, want *array.Array) error {
	base, err := cl.Gather(def.Alpha.Name)
	if err != nil {
		return err
	}
	vw, err := cl.Gather(def.Name)
	if err != nil {
		return err
	}
	ref, err := view.Materialize(def, want, want)
	if err != nil {
		return err
	}
	o.check(label+" base equals base ∪ batches", base.Equal(want))
	o.check(label+" view equals view.Materialize(base ∪ batches)", vw.Equal(ref))
	return nil
}

// hotShapes are the repeated query shapes: the view's own shape and two
// Lp balls over all three dimensions.
func hotShapes(viewShape *shape.Shape) []*shape.Shape {
	d := viewShape.NumDims()
	return []*shape.Shape{viewShape, shape.Linf(d, 1), shape.L1(d, 2)}
}

// coldShape is the c-th never-repeating query shape: a unit cross plus two
// symmetric offset pairs drawn from base-7 digits of c, distinct for every
// c below 7^4.
func coldShape(dims int, c int) (*shape.Shape, error) {
	offs := [][]int64{make([]int64, dims)}
	for d := 0; d < dims; d++ {
		for _, s := range []int64{1, -1} {
			o := make([]int64, dims)
			o[d] = s
			offs = append(offs, o)
		}
	}
	pair := func(a, b int64) {
		p, n := make([]int64, dims), make([]int64, dims)
		p[0], p[1], n[0], n[1] = a, b, -a, -b
		offs = append(offs, p, n)
	}
	pair(int64(2+c%7), int64(2+(c/7)%7))
	pair(int64(2+(c/49)%7), -int64(2+(c/343)%7))
	return shape.FromOffsets(fmt.Sprintf("cold-%d", c), offs)
}

// queryMix is the query sequence: four in five queries cycle the hot
// shapes, every fifth is a fresh cold shape. The seed offsets the cold
// shapes so runs with different seeds send different ones.
type queryMix struct {
	hot      []*shape.Shape
	dims     int
	coldBase int
}

func newQueryMix(def *view.Definition, seed int64) queryMix {
	return queryMix{hot: hotShapes(def.Pred.Shape), dims: def.Pred.Shape.NumDims(), coldBase: int(uint64(seed) % 1000)}
}

func (m queryMix) shape(k int) (*shape.Shape, bool, error) {
	if k%5 == 4 {
		sh, err := coldShape(m.dims, m.coldBase+k/5)
		return sh, true, err
	}
	return m.hot[k%len(m.hot)], false, nil
}

// shapeOracle checks answers against single-node from-scratch evaluation,
// caching the reference per (shape, state) so repeated shapes cost one
// evaluation.
type shapeOracle struct {
	def  *view.Definition
	refs map[string]*array.Array
}

func (s *shapeOracle) matches(sh *shape.Shape, stateKey string, base, got *array.Array) (bool, error) {
	if s.refs == nil {
		s.refs = make(map[string]*array.Array)
	}
	key := sh.Name() + "@" + stateKey
	ref, ok := s.refs[key]
	if !ok {
		d, err := shapeDef(s.def, sh)
		if err != nil {
			return false, err
		}
		if ref, err = view.Materialize(d, base, base); err != nil {
			return false, err
		}
		s.refs[key] = ref
	}
	return got.Equal(ref), nil
}

// viewReader measures what a reader of an ingest or revisit deployment
// sees once the writes are done: closed-loop reads of the maintained view
// (the view-shape query) over one connection to a serve.Server on the
// final state, each answer checked against want. Only the view shape is
// read: any other shape makes the query engine price full placement
// solves over the whole final state, which takes minutes at this scale.
type viewReader struct {
	srv  *serve.Server
	cli  *serve.Client
	def  *view.Definition
	want *array.Array
	orc  *shapeOracle

	lats      []time.Duration
	good, bad int
	n, failed int
	readTime  time.Duration
}

func newViewReader(spec bench.Spec, cl *cluster.Cluster, def *view.Definition, want *array.Array,
	fresh func(context.Context) error) (*viewReader, error) {
	eng, err := query.NewEngine(cl, def, spec.Params)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(eng, nil)
	if fresh != nil {
		srv.SetFresh(fresh, nil)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	cli, err := serve.NewClient(srv.Addr(), def.Schema(), nil)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &viewReader{srv: srv, cli: cli, def: def, want: want, orc: &shapeOracle{def: def}}, nil
}

// read sends n view reads back to back.
func (r *viewReader) read(o *outcome, n int) error {
	for k := 0; k < n; k++ {
		t0 := time.Now()
		res, err := r.cli.Query(r.def.Pred.Shape, query.Auto)
		lat := time.Since(t0)
		r.n++
		r.readTime += lat
		if err != nil {
			r.failed++
			o.notef("view read failed: %v", err)
			continue
		}
		r.lats = append(r.lats, lat)
		if lat <= queryLimit {
			r.good++
		}
		ok, err := r.orc.matches(r.def.Pred.Shape, "final", r.want, res.Array)
		if err != nil {
			return err
		}
		if !ok {
			r.bad++
		}
	}
	return nil
}

func (r *viewReader) close() {
	r.cli.Close()
	r.srv.Close()
}

// finish records the reads for query_p50_ms, query_tail_ms and
// goodput_qps (reads within queryLimit per second spent reading).
func (r *viewReader) finish(o *outcome) {
	o.attempted += r.n
	o.failed += r.failed
	o.query = appendMillis(o.query, r.lats)
	o.good += r.good
	o.goodSecs += r.readTime.Seconds()
	o.notef("view reads: %d closed-loop over one connection, %d within %v, %.3f s reading", r.n, r.good, queryLimit, r.readTime.Seconds())
	o.check(fmt.Sprintf("view reads (%d of %d) equal single-node evaluation", r.n-r.failed-r.bad, r.n), r.bad == 0 && r.failed == 0)
}

// epilogue times restoreReps restores of each of points restore points,
// each point followed by a block of view reads when reads is non-nil, so
// that a burst of host noise lands on a few samples of each measurement
// instead of all of one. It keeps each point's median restore time for
// recover_s and closes reads.
func epilogue(o *outcome, reads *viewReader, points int, restore func(point int) (float64, error)) error {
	if reads != nil {
		defer reads.close()
	}
	for p := 0; p < points; p++ {
		secs := make([]float64, restoreReps)
		for i := range secs {
			runtime.GC()
			s, err := restore(p)
			if err != nil {
				return fmt.Errorf("restore point %d: %w", p, err)
			}
			secs[i] = s
		}
		o.restore = append(o.restore, medianOf(secs))
		if reads != nil {
			runtime.GC()
			if err := reads.read(o, probeQueries/points); err != nil {
				return err
			}
		}
	}
	if reads != nil {
		reads.finish(o)
	}
	return nil
}

// rebuild times restoring the final state of an in-memory deployment from
// its inputs into a fresh in-process cluster: load the base with every
// committed batch, then build the view.
func rebuild(spec bench.Spec, schema *array.Schema, want *array.Array) (float64, error) {
	t0 := time.Now()
	cl, err := spec.Cluster()
	if err != nil {
		return 0, err
	}
	if _, err := loadView(cl, spec, &workload.Dataset{Schema: schema, Base: want}, spec.Placement()); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// residentAmp is bytes held in the node stores per byte of user cells.
func residentAmp(o *outcome, cl *cluster.Cluster, want *array.Array) error {
	tot, err := fabricTotals(cl)
	if err != nil {
		return err
	}
	o.amps = append(o.amps, float64(tot.Bytes)/float64(want.SizeBytes()))
	o.notef("space_amp: %d resident bytes / %d user-cell bytes", tot.Bytes, want.SizeBytes())
	return nil
}
