package main

import (
	"math"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

const (
	// revisitNightsPerSecond sizes a revisit run like ingestNightsPerSecond.
	revisitNightsPerSecond = 0.95
	// revisitHotFrac is the share of each night landing on the one fixed
	// pointing.
	revisitHotFrac = 0.8
)

// runRevisit applies skewed PTF-5 nights — most detections revisit one
// fixed pointing — closed-loop through the adaptive heavy-light maintainer
// over the TCP loopback fabric, and ends with a timed Drain of the
// deferred deltas.
func runRevisit(cfg config, rec *recorder, o *outcome) error {
	spec := cfg.spec()
	spec.PTF.NumBatches = max(2, int(math.Round(float64(cfg.seconds)*revisitNightsPerSecond/parts)))
	if cfg.tiny {
		spec.PTF.NumBatches = 4
	}
	o.notef("revisit: PTF-5 skewed (hot fraction %.1f), %d nights of %d detections, %d nodes x %d workers, adaptive maintainer, TCP loopback fabric",
		revisitHotFrac, spec.PTF.NumBatches, spec.PTF.DetectionsPerNight, spec.Nodes, spec.Workers)

	var (
		data *workload.Dataset
		cl   *cluster.Cluster
		tf   *tracedFabric
		def  *view.Definition
		am   *maintain.AdaptiveMaintainer
	)
	setup, teardown, err := setupTimes(func() (func(), error) {
		var err error
		if data, err = workload.GeneratePTFSkewed(spec.PTF, revisitHotFrac); err != nil {
			return nil, err
		}
		c, t, stop, err := newTCPCluster(spec, rec)
		if err != nil {
			return nil, err
		}
		if def, err = loadView(c, spec, data, spec.Placement()); err != nil {
			stop()
			return nil, err
		}
		// The ivmserve -adaptive configuration.
		acfg := maintain.DefaultAdaptiveConfig()
		acfg.Project = maintain.DropDims(0)
		if am, err = maintain.NewAdaptiveMaintainer(c, def, nil, spec.Params, acfg); err != nil {
			stop()
			return nil, err
		}
		am.Inner().SetPlacements(spec.Placement(), spec.Placement())
		cl, tf = c, t
		return stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	o.setup = append(o.setup, setup...)

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
	var lats []time.Duration
	var committed []*array.Array
	cells := 0
	t0 := time.Now()
	for i, b := range data.Batches {
		id, end := rec.begin("adaptive.ApplyBatch", winID, int64(i))
		rec.setCur(id)
		q0 := time.Now()
		rep, err := am.ApplyBatch(b)
		lat := time.Since(q0)
		end()
		o.attempted++
		if err != nil {
			o.failed++
			o.notef("batch %d failed: %v", i, err)
			continue
		}
		lats = append(lats, lat)
		committed = append(committed, b)
		cells += b.NumCells()
		o.addReports(rep.Heavy)
		o.addReports(rep.Drains...)
	}
	id, end := rec.begin("adaptive.Drain", winID, -1)
	rec.setCur(id)
	d0 := time.Now()
	drep, err := am.Drain()
	drain := time.Since(d0)
	end()
	o.attempted++
	if err != nil {
		o.failed++
		o.notef("drain failed: %v", err)
	} else {
		o.addReports(drep.Heavy)
		o.addReports(drep.Drains...)
	}
	window := time.Since(t0).Seconds()
	rec.setCur(winID)
	endWin()
	rec.stop()
	o.rss = append(o.rss, peakRSSMB())
	o.commit = appendMillis(o.commit, lats)
	o.cells += cells
	o.cellSecs += (sum(lats) + drain).Seconds()
	o.notef("window: %d batches + drain (%.3f s), %d delta cells, %.3f s", len(lats), drain.Seconds(), cells, window)

	st := am.Stats()
	o.ratio("adaptive.memo_hit_ratio", st.Memo.Hits, st.Memo.Hits+st.Memo.Misses)
	o.ratio("adaptive.plan_reuse_ratio", st.Plans.Hits, st.Plans.Hits+st.Plans.Misses)
	o.layers["adaptive.deferred"] += float64(st.Pending.Appended)
	o.layers["adaptive.promotions"] += float64(st.Promotions)
	o.layers["adaptive.drain_ms"] += 1000 * drain.Seconds()
	after, err := fabricTotals(cl)
	if err != nil {
		return err
	}
	if tf != nil {
		o.fabricLayers(tf, before, after)
	}

	want, err := unionOf(data.Base, committed)
	if err != nil {
		return err
	}
	if err := checkFinal(o, "revisit", cl, def, want); err != nil {
		return err
	}
	if err := residentAmp(o, cl, want); err != nil {
		return err
	}
	reads, err := newViewReader(spec, cl, def, want, am.EnsureFresh)
	if err != nil {
		return err
	}
	if err := epilogue(o, reads, rebuildBlocks, func(int) (float64, error) { return rebuild(spec, data.Schema, want) }); err != nil {
		return err
	}
	o.notef("recover_s: rebuild of the final state from its inputs into a fresh in-process cluster (no durable store), mean over %d blocks of the median of %d rebuilds each", rebuildBlocks, restoreReps)
	return nil
}
