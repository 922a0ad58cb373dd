package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/stream"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

// The serve workload's fixed load, recorded in BENCHMARK.json.
const (
	// serveMode is the evaluation path every query forces: the view plus
	// the differential Δ-shape join. Under query.Auto each decision prices
	// two full placement solves — about two seconds at this scale — and
	// the memo of those prices is keyed by the catalog layout, which every
	// commit changes, so under live writes each non-view query would pay
	// them again.
	serveMode = query.ForceView
	// For the first nominalShare of the window queries are due at
	// nominalQPS, open loop; query_p50_ms and query_tail_ms are measured
	// there. For the rest the one connection sends back to back, closed
	// loop, and goodput_qps is its answers within queryLimit per second.
	// At this rate about a quarter of the micro-batches wait behind a
	// query, so commit_p50_ms falls among those that do not and
	// commit_tail_ms among those that do; near half, the median would
	// jump between the two from run to run.
	nominalQPS   = 2.0
	nominalShare = 0.75
	// microBatchCells and feedInterval fix the write load: micro-batches
	// of this many detections, one due in every interval, at a point that
	// walks the interval by the golden ratio from a seeded start. Due on a
	// fixed grid, each micro-batch would meet the queries, due on a grid
	// of their own, at the same few offsets, and whether it waits behind
	// one would flip when query latency crosses one of those offsets;
	// drawn independently, the number that meet a slow query would scatter
	// from run to run. Spread evenly, the share of micro-batches that wait
	// behind a query follows query latency smoothly.
	microBatchCells = 125
	feedInterval    = 250 * time.Millisecond
	// shedAfter is how late an open-loop query may fall behind its due
	// time before the generator drops it as a miss instead of sending it,
	// which keeps an overloaded host from stretching the run.
	shedAfter = 2 * time.Second
	// oracleSample is how many open-loop answers, drawn by the seed, are
	// checked against single-node evaluation at their pinned epochs.
	oracleSample = 12
	// feedNights is how many nights the feed deals its micro-batches from
	// in turn. Which chunks a micro-batch touches, and so what its commit
	// costs, depends on the night it comes from; drawn from two nights, as
	// a plain cut of the first nights would be, a part's commit latencies
	// would stand or fall with those two.
	feedNights = 10
	// goldenFrac is the fractional part of the golden ratio: adding it
	// modulo 1 spreads points evenly over an interval.
	goldenFrac = 0.6180339887498949
)

// queryRecord is one query the generator was due to send.
type queryRecord struct {
	closed bool // sent in the closed-loop part
	due    time.Time
	late   time.Duration // send time minus due time
	lat    time.Duration // answer time minus due time
	shape  *shape.Shape
	cold   bool
	err    error
	shed   bool
	epoch  uint64
	answer *array.Array // kept only for the oracle sample
}

// batchRecord is one micro-batch the feeder was due to submit.
type batchRecord struct {
	delta *array.Array
	lat   time.Duration // ticket result time minus due time
	res   stream.Result
}

// runServe sends an open-loop query mix over one serve.Client connection
// to an in-process serve.Server while a second goroutine feeds PTF-5 real
// detections as fixed-size micro-batches through a stream.Graph.
func runServe(cfg config, rec *recorder, o *outcome) error {
	spec := cfg.spec()
	window := time.Duration(cfg.seconds) * time.Second / parts
	if cfg.tiny {
		window = 2 * time.Second
	}
	nominal := time.Duration(float64(window) * nominalShare)
	due := int(nominalQPS * nominal.Seconds())
	feeds := int(window / feedInterval)
	// At least feedNights nights, and enough for the feed at half the
	// average night's volume.
	spec.PTF.NumBatches = max(feedNights, 1+feeds*microBatchCells/(spec.PTF.DetectionsPerNight/2))
	o.notef("serve: PTF-5 real, %d nodes x %d workers; stream feed of %d-cell micro-batches, one in every %v at golden-ratio offsets from a seeded start; queries over one connection: open loop at %v qps for %v, then closed loop for %v; latency limit %v",
		spec.Nodes, spec.Workers, microBatchCells, feedInterval, nominalQPS, nominal, window-nominal, queryLimit)

	var (
		data  *workload.Dataset
		cl    *cluster.Cluster
		tf    *tracedFabric
		def   *view.Definition
		srv   *serve.Server
		g     *stream.Graph
		cli   *serve.Client
		micro []*array.Array
	)
	setup, teardown, err := setupTimes(func() (func(), error) {
		var err error
		if data, err = spec.Generate(); err != nil {
			return nil, err
		}
		if micro, err = splitBatches(data.Batches, microBatchCells); err != nil {
			return nil, err
		}
		if cl, tf, err = newLocalCluster(spec, rec); err != nil {
			return nil, err
		}
		// The ivmserve layout: round-robin placement for base and view.
		if def, err = loadView(cl, spec, data, &cluster.RoundRobin{}); err != nil {
			return nil, err
		}
		eng, err := query.NewEngine(cl, def, spec.Params)
		if err != nil {
			return nil, err
		}
		s := serve.NewServer(eng, nil)
		if err := s.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		gr, err := stream.NewGraph(stream.Config{
			Cluster:        cl,
			Def:            def,
			Planner:        maintain.Strategies()["reassign"],
			Params:         spec.Params,
			ArrayPlacement: &cluster.RoundRobin{},
			ViewPlacement:  &cluster.RoundRobin{},
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		c, err := serve.NewClient(s.Addr(), def.Schema(), nil)
		if err != nil {
			gr.Drain()
			s.Close()
			return nil, err
		}
		if err := c.Ping(); err != nil {
			c.Close()
			gr.Drain()
			s.Close()
			return nil, err
		}
		srv, g, cli = s, gr, c
		return func() { c.Close(); gr.Drain(); s.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	o.setup = append(o.setup, setup...)
	if feeds > len(micro) {
		return fmt.Errorf("serve: %d micro-batches generated, %d needed", len(micro), feeds)
	}

	// The oracle sample: open-loop query indices drawn by the seed.
	sample := make(map[int]bool)
	rng := rand.New(rand.NewSource(cfg.seed))
	for len(sample) < min(oracleSample, due) {
		sample[rng.Intn(due)] = true
	}
	// When each micro-batch is due, from the start of the window.
	offsets := make([]time.Duration, feeds)
	at := rng.Float64()
	for i := range offsets {
		offsets[i] = time.Duration((float64(i) + at) * float64(feedInterval))
		at = math.Mod(at+goldenFrac, 1)
	}

	resetPeakRSS()
	rec.resume()
	if tf != nil {
		tf.reset()
	}
	before, err := fabricTotals(cl)
	if err != nil {
		return err
	}
	winID, endWin := rec.begin("window", 0, -1)
	rec.setCur(winID)
	var (
		peaks   epochPeaks
		peaksMu sync.Mutex
		depths  = make([]int64, len(streamStages))
		queries []queryRecord
		batches []batchRecord
		wg      sync.WaitGroup
	)
	samplePeaks := func() {
		if rec == nil {
			return
		}
		peaksMu.Lock()
		peaks.sample(cl)
		peaksMu.Unlock()
	}
	start := time.Now().Add(50 * time.Millisecond)
	end := start.Add(window)
	wg.Add(2)
	go func() {
		defer wg.Done()
		batches = feed(g, micro[:feeds], start, offsets, rec, winID, func() {
			if rec != nil {
				samplePeaks()
				for i, st := range g.Stats().Stages {
					depths[i] = max(depths[i], st.Depth)
				}
			}
		})
	}()
	go func() {
		defer wg.Done()
		queries = sendQueries(cli, newQueryMix(def, cfg.seed), start, due, end, sample, rec, winID, samplePeaks)
	}()
	wg.Wait()
	finished := time.Now()
	endWin()
	rec.stop()
	o.rss = append(o.rss, peakRSSMB())
	if finished.Before(end) {
		finished = end
	}
	elapsed := finished.Sub(start).Seconds()

	// Writes.
	var lats []time.Duration
	var committed []*array.Array
	epochOf := make([]uint64, 0, len(batches))
	cells := 0
	for i, b := range batches {
		o.attempted++
		if b.res.Err != nil {
			o.failed++
			o.notef("micro-batch %d failed: %v", i, b.res.Err)
			continue
		}
		// Commit latency is taken at the nominal query rate; commits
		// during the closed-loop part fight a saturating reader for the
		// CPU, which measures the host more than the commit path. So does
		// a micro-batch due in the last interval before that part, which
		// is still committing when the back-to-back queries start.
		if time.Duration(i+1)*feedInterval < nominal {
			lats = append(lats, b.lat)
		}
		committed = append(committed, b.delta)
		epochOf = append(epochOf, b.res.Epoch)
		cells += b.delta.NumCells()
		o.layers["maintain.transfers"] += float64(b.res.Transfers)
		o.layers["maintain.model_eq1_ms"] += 1000 * b.res.MaintenanceSeconds
		o.addPhases(b.res.Trace)
		// A stream result carries no execution time; its phase times
		// are the batch's execution, pipelined with its neighbours'.
		for _, p := range maintPhases {
			o.layers["maintain.exec_ms"] += 1000 * b.res.Trace.PhaseSeconds(p)
		}
	}
	o.commit = appendMillis(o.commit, lats)
	o.cells += cells
	o.cellSecs += elapsed
	o.notef("writes: %d micro-batches, %d cells committed over %.3f s; %d commits timed at the nominal query rate", len(committed), cells, elapsed, len(lats))

	// Queries.
	var ok, lates []float64
	misses, good, closed := 0, 0, 0
	var closedFrom, closedTo time.Time
	for _, q := range queries {
		o.attempted++
		switch {
		case q.err != nil:
			o.failed++
			o.notef("query failed: %v", q.err)
		case q.closed:
			if closed == 0 {
				closedFrom = q.due
			}
			closed++
			closedTo = q.due.Add(q.lat)
			if q.lat <= queryLimit {
				good++
			}
		case q.shed:
			misses++
		default:
			ok = append(ok, float64(q.lat)/float64(time.Millisecond))
			lates = append(lates, float64(q.late)/float64(time.Millisecond))
		}
	}
	o.query = append(o.query, ok...)
	o.notef("open loop at %v qps: %d due, %d answered, %d shed", nominalQPS, due, len(ok), misses)
	if closed > 0 {
		o.good += good
		o.goodSecs += closedTo.Sub(closedFrom).Seconds()
	}
	o.notef("closed loop: %d queries, %d within %v, over %.3f s", closed, good, queryLimit, closedTo.Sub(closedFrom).Seconds())
	for _, l := range lates {
		o.sample("serve.gen_late_ms", l)
	}

	st := srv.Stats()
	o.ratio("readcache.hit_ratio", st.CacheHits, st.CacheHits+st.CacheMisses)
	fp := st.FastPath
	o.ratio("viewcache.hit_ratio", fp.ViewHits, fp.ViewHits+fp.ViewMisses)
	o.layers["viewcache.invalidations"] += float64(fp.ViewInvalidations)
	o.ratio("fastpath.memo_hit_ratio", fp.MemoHits, fp.MemoHits+fp.MemoMisses)
	o.layers["fastpath.solve_skips"] += float64(fp.SolveSkips)
	o.layers["serve.admitted"] += float64(st.Queries)
	o.layers["serve.rejected"] += float64(st.Rejected)
	peaks.record(o)
	gs := g.Stats()
	for i, sg := range gs.Stages {
		o.layers["stream."+sg.Name+".busy_s"] += sg.BusySeconds
		o.layers["stream."+sg.Name+".stall_s"] += sg.StallSeconds
		o.peak("stream."+sg.Name+".depth", float64(depths[i]))
	}
	o.ratio("stream.router_reuse_ratio", gs.Router.Reuses, gs.Router.Reuses+gs.Router.Solves)
	o.layers["stream.retries"] += float64(gs.Retries)
	o.layers["stream.aborts"] += float64(gs.Aborts)
	after, err := fabricTotals(cl)
	if err != nil {
		return err
	}
	if tf != nil {
		o.fabricLayers(tf, before, after)
	}
	if rec != nil {
		if err := serveProbes(o, cfg, srv, cli, def); err != nil {
			return err
		}
	}

	// Oracles, outside the timed window.
	want, err := unionOf(data.Base, committed)
	if err != nil {
		return err
	}
	if err := checkFinal(o, "serve", cl, def, want); err != nil {
		return err
	}
	if err := checkAnswers(o, def, data.Base, committed, epochOf, queries); err != nil {
		return err
	}
	if err := residentAmp(o, cl, want); err != nil {
		return err
	}
	if err := epilogue(o, nil, rebuildBlocks, func(int) (float64, error) { return rebuild(spec, data.Schema, want) }); err != nil {
		return err
	}
	o.notef("recover_s: rebuild of the final state from its inputs into a fresh in-process cluster (no durable store), mean over %d blocks of the median of %d rebuilds each", rebuildBlocks, restoreReps)
	return nil
}

// splitBatches cuts every night into micro-batches of exactly n
// detections in row-major cell order, dropping each night's remainder, and
// deals them out one night after another: piece 0 of every night, then
// piece 1 of every night, and so on.
func splitBatches(nights []*array.Array, n int) ([]*array.Array, error) {
	pieces := make([][]*array.Array, len(nights))
	for i, night := range nights {
		cur := array.New(night.Schema())
		for _, k := range night.ChunkKeys() {
			var err error
			night.ChunkByKey(k).EachSorted(func(p array.Point, t array.Tuple) bool {
				if err = cur.Set(append(array.Point(nil), p...), append(array.Tuple(nil), t...)); err != nil {
					return false
				}
				if cur.NumCells() == n {
					pieces[i] = append(pieces[i], cur)
					cur = array.New(night.Schema())
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
	}
	var out []*array.Array
	for k := 0; ; k++ {
		dealt := false
		for _, p := range pieces {
			if k < len(p) {
				out = append(out, p[k])
				dealt = true
			}
		}
		if !dealt {
			return out, nil
		}
	}
}

// feed submits micro-batch i at start + offsets[i] and records, in
// submission order, when each ticket resolved. The stream commits in
// admission order, so waiting on the oldest ticket first loses nothing.
func feed(g *stream.Graph, micro []*array.Array, start time.Time, offsets []time.Duration, rec *recorder, winID int64, sample func()) []batchRecord {
	out := make([]batchRecord, len(micro))
	type pending struct {
		i    int
		tk   *stream.Ticket
		due  time.Time
		done func()
	}
	var queue []pending
	resolve := func(p pending) {
		out[p.i].lat = time.Since(p.due)
		out[p.i].res = p.tk.Wait()
		p.done()
		sample()
	}
	// waitUntil resolves tickets as they finish until t.
	waitUntil := func(t time.Time) {
		for len(queue) > 0 {
			timer := time.NewTimer(time.Until(t))
			select {
			case <-queue[0].tk.Done():
				timer.Stop()
				resolve(queue[0])
				queue = queue[1:]
				continue
			case <-timer.C:
			}
			return
		}
		time.Sleep(time.Until(t))
	}
	for i, m := range micro {
		due := start.Add(offsets[i])
		waitUntil(due)
		out[i].delta = m
		_, done := rec.begin("stream.batch", winID, int64(i))
		tk, err := g.Submit(m)
		if err != nil {
			out[i].res.Err = err
			done()
			continue
		}
		queue = append(queue, pending{i, tk, due, done})
		sample()
	}
	for _, p := range queue {
		<-p.tk.Done()
		resolve(p)
	}
	return out
}

// sendQueries runs the query schedule over one connection: due queries
// open loop, each latency measured from its due time, then back-to-back
// queries until end.
func sendQueries(cli *serve.Client, mix queryMix, start time.Time, due int, end time.Time,
	sample map[int]bool, rec *recorder, winID int64, after func()) []queryRecord {
	var out []queryRecord
	send := func(k int, q queryRecord) {
		var err error
		if q.shape, q.cold, err = mix.shape(k); err != nil {
			q.err = err
		} else if !q.shed {
			_, done := rec.begin("serve.Client.Query", winID, int64(k))
			res, err := cli.Query(q.shape, serveMode)
			q.lat = time.Since(q.due)
			done()
			after()
			if err != nil {
				q.err = err
			} else {
				q.epoch = res.Epoch
				if sample[k] {
					q.answer = res.Array
				}
			}
		}
		out = append(out, q)
	}
	for k := 0; k < due; k++ {
		at := start.Add(time.Duration(float64(k) / nominalQPS * float64(time.Second)))
		time.Sleep(time.Until(at))
		late := time.Since(at)
		send(k, queryRecord{due: at, late: late, shed: late > shedAfter})
	}
	for k := due; time.Now().Before(end); k++ {
		send(k, queryRecord{closed: true, due: time.Now()})
	}
	return out
}

// checkAnswers evaluates every sampled answer from scratch on one node
// over the base and the micro-batches committed at or before the answer's
// pinned epoch.
func checkAnswers(o *outcome, def *view.Definition, base *array.Array, committed []*array.Array, epochOf []uint64, qs []queryRecord) error {
	var sampled []queryRecord
	for _, q := range qs {
		if q.answer != nil {
			sampled = append(sampled, q)
		}
	}
	orc := &shapeOracle{def: def}
	bad := 0
	for _, q := range sampled {
		n := 0
		for n < len(epochOf) && epochOf[n] <= q.epoch {
			n++
		}
		state, err := unionOf(base, committed[:n])
		if err != nil {
			return err
		}
		ok, err := orc.matches(q.shape, fmt.Sprint(q.epoch), state, q.answer)
		if err != nil {
			return err
		}
		if !ok {
			bad++
		}
	}
	o.check(fmt.Sprintf("%d seeded-sample answers equal single-node evaluation at their pinned epochs (%d mismatched)", len(sampled), bad), bad == 0)
	return nil
}

// serveProbes times, after the window, the in-process query path on a
// pinned snapshot (query.hot_ms, query.cold_ms) and the wire: client
// latency minus the Server.Answer latency of the same shape
// (serve.wire_ms).
func serveProbes(o *outcome, cfg config, srv *serve.Server, cli *serve.Client, def *view.Definition) error {
	const reps = 5
	ctx := context.Background()
	snap, err := srv.Engine().Cluster.Epochs().Acquire()
	if err != nil {
		return err
	}
	defer snap.Release()
	timeIt := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0)) / float64(time.Millisecond), err
	}
	var hot, cold, local, remote []float64
	mix := newQueryMix(def, cfg.seed)
	for r := 0; r < reps; r++ {
		for _, sh := range mix.hot {
			ms, err := timeIt(func() error {
				_, err := srv.Engine().AnswerSnapshot(ctx, snap, srv.ReadCache(), sh, serveMode)
				return err
			})
			if err != nil {
				return err
			}
			hot = append(hot, ms)
		}
		// Cold shapes past every index the window used.
		sh, err := coldShape(mix.dims, mix.coldBase+1000+r)
		if err != nil {
			return err
		}
		ms, err := timeIt(func() error {
			_, err := srv.Engine().AnswerSnapshot(ctx, snap, srv.ReadCache(), sh, serveMode)
			return err
		})
		if err != nil {
			return err
		}
		cold = append(cold, ms)
		vs := def.Pred.Shape
		ms, err = timeIt(func() error { _, _, err := srv.Answer(ctx, vs, serveMode); return err })
		if err != nil {
			return err
		}
		local = append(local, ms)
		ms, err = timeIt(func() error { _, err := cli.Query(vs, serveMode); return err })
		if err != nil {
			return err
		}
		remote = append(remote, ms)
	}
	for _, v := range hot {
		o.sample("query.hot_ms", v)
	}
	for _, v := range cold {
		o.sample("query.cold_ms", v)
	}
	o.sample("serve.wire_ms", medianOf(remote)-medianOf(local))
	o.notef("probes on a pinned snapshot: hot median of %d, cold median of %d; wire = client minus Server.Answer, medians of %d", len(hot), len(cold), reps)
	return nil
}
