package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

// ingestNightsPerSecond sizes an ingest run: a run of --seconds s applies
// that many seconds times this many nights over its parts; with the
// restores and reads after each window that is about --seconds of
// measured work on the calibration machine. The work is fixed per run
// length, not cut by the clock, so two commits always do the same work.
const ingestNightsPerSecond = 1.75

// runIngest applies PTF-5 "real" nights closed-loop through the eager
// reassign maintainer on the in-process fabric, with every store
// journaled to a WAL on local disk, then crashes and times recovery.
func runIngest(cfg config, rec *recorder, o *outcome) error {
	spec := cfg.spec()
	spec.PTF.NumBatches = max(2, int(math.Round(float64(cfg.seconds)*ingestNightsPerSecond/parts)))
	if cfg.tiny {
		spec.PTF.NumBatches = 3
	}
	o.notef("ingest: PTF-5 real, %d nights of ~%d detections, %d nodes x %d workers, reassign, WAL on local disk (CompactBytes %d)",
		spec.PTF.NumBatches, spec.PTF.DetectionsPerNight, spec.Nodes, spec.Workers, wal.DefaultCompactBytes)
	planner := maintain.Strategies()["reassign"]

	var (
		data *workload.Dataset
		cl   *cluster.Cluster
		tf   *tracedFabric
		def  *view.Definition
		m    *maintain.Maintainer
		dur  *wal.Durable
		dir  string
		wt   *walTiming
	)
	setup, teardown, err := setupTimes(func() (func(), error) {
		var err error
		if data, err = spec.Generate(); err != nil {
			return nil, err
		}
		if cl, tf, err = newLocalCluster(spec, rec); err != nil {
			return nil, err
		}
		if def, err = loadView(cl, spec, data, spec.Placement()); err != nil {
			return nil, err
		}
		if m, err = maintain.NewMaintainer(cl, def, planner, spec.Params); err != nil {
			return nil, err
		}
		m.SetPlacements(spec.Placement(), spec.Placement())
		d, err := os.MkdirTemp(cfg.workdir, "ingest-wal-")
		if err != nil {
			return nil, err
		}
		var fs wal.FS = wal.NewOSFS(d)
		if rec != nil {
			wt = &walTiming{rec: rec}
			fs = timedFS{fs, wt}
		}
		du, _, err := wal.Open(fs, spec.Nodes, wal.Options{})
		if err != nil {
			os.RemoveAll(d)
			return nil, err
		}
		if err := du.Attach(cl); err != nil {
			du.Close()
			os.RemoveAll(d)
			return nil, err
		}
		dur, dir = du, d
		return func() { du.Close(); os.RemoveAll(d) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	o.setup = append(o.setup, setup...)

	// Timed window: one writer, one batch at a time.
	resetPeakRSS()
	rec.resume()
	if tf != nil {
		tf.reset()
		wt.reset()
	}
	before, err := fabricTotals(cl)
	if err != nil {
		return err
	}
	ckpt0 := dur.Counters().Checkpoints.Load()
	winID, endWin := rec.begin("window", 0, -1)
	var lats []time.Duration
	var committed []*array.Array
	var amps []float64
	cells, userBytes := 0, data.Base.SizeBytes()
	// Crash points: copies of the directory taken between batches, spread
	// over the window, and the final directory. Recovery time rises and
	// falls with the log replayed since the last checkpoint, so one crash
	// point alone lands anywhere on that saw-tooth.
	var crashes []string
	defer func() {
		for _, c := range crashes {
			if c != dir {
				os.RemoveAll(c)
			}
		}
	}()
	crashEvery := max(1, len(data.Batches)/crashPoints)
	t0 := time.Now()
	for i, b := range data.Batches {
		id, end := rec.begin("maintain.ApplyBatch", winID, int64(i))
		rec.setCur(id)
		q0 := time.Now()
		rep, err := m.ApplyBatch(b)
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
		o.addReports(rep)
		// The disk footprint saw-tooths between checkpoints, so space
		// amplification is averaged over every committed batch.
		disk, err := dirBytes(dir)
		if err != nil {
			return err
		}
		userBytes += b.SizeBytes()
		amps = append(amps, float64(disk)/float64(userBytes))
		if (i+1)%crashEvery == 0 && len(crashes) < crashPoints-1 && i+1 < len(data.Batches) {
			cp := fmt.Sprintf("%s-crash%d", dir, len(crashes))
			crashes = append(crashes, cp)
			if err := copyDir(dir, cp); err != nil {
				return err
			}
		}
	}
	crashes = append(crashes, dir)
	window := time.Since(t0).Seconds()
	rec.setCur(winID)
	endWin()
	rec.stop()
	o.rss = append(o.rss, peakRSSMB())
	o.commit = appendMillis(o.commit, lats)
	o.cells += cells
	o.cellSecs += sum(lats).Seconds()
	o.notef("window: %d batches, %d delta cells, %.3f s", len(lats), cells, window)
	o.amps = append(o.amps, amps...)
	o.notef("space_amp: bytes on disk per byte of user cells (base and committed batches), averaged over %d batches", len(amps))

	after, err := fabricTotals(cl)
	if err != nil {
		return err
	}
	if tf != nil {
		o.fabricLayers(tf, before, after)
		o.layers["wal.sync_calls"] += float64(wt.syncCalls.Load())
		o.layers["wal.sync_ms"] += float64(wt.syncNanos.Load()) / 1e6
		o.layers["wal.write_bytes"] += float64(wt.writeBytes.Load())
		o.layers["wal.write_ms"] += float64(wt.writeNanos.Load()) / 1e6
	}
	o.layers["wal.checkpoints"] += float64(dur.Counters().Checkpoints.Load() - ckpt0)

	want, err := unionOf(data.Base, committed)
	if err != nil {
		return err
	}

	// Crash: the store is never closed. Each recovery opens a pristine
	// copy of its crash point, because recovery writes a checkpoint; the
	// last one recovers the final directory.
	var recovered *cluster.Cluster
	restore := func(point int) (float64, error) {
		src := crashes[min(point, len(crashes)-1)]
		cp := src + "-copy"
		if err := copyDir(src, cp); err != nil {
			return 0, err
		}
		defer os.RemoveAll(cp)
		rcl, open, install, err := recoverDir(spec, cp)
		if err != nil {
			return 0, err
		}
		o.sample("wal.open_ms", 1000*open)
		o.sample("wal.install_ms", 1000*install)
		recovered = rcl
		return open + install, nil
	}
	reads, err := newViewReader(spec, cl, def, want, nil)
	if err != nil {
		return err
	}
	if err := epilogue(o, reads, crashPoints, restore); err != nil {
		return err
	}
	o.notef("recover_s: wal.Open + Recovered.Install from a pristine copy, mean over %d crash points spread over the window of the median of %d recoveries each", crashPoints, restoreReps)
	if err := checkFinal(o, "ingest", cl, def, want); err != nil {
		return err
	}
	return checkRecovered(o, cl, recovered, def)
}

// recoverDir opens a durable directory and installs it into a fresh
// cluster, returning the cluster and the two timings in seconds.
func recoverDir(spec bench.Spec, dir string) (*cluster.Cluster, float64, float64, error) {
	t0 := time.Now()
	d, r, err := wal.Open(wal.NewOSFS(dir), spec.Nodes, wal.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.Close()
	open := time.Since(t0).Seconds()
	if r == nil {
		return nil, 0, 0, fmt.Errorf("nothing durable in %s", dir)
	}
	cl, err := spec.Cluster()
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	if err := r.Install(cl); err != nil {
		return nil, 0, 0, err
	}
	return cl, open, time.Since(t1).Seconds(), nil
}

// checkRecovered compares the recovered base and view with the pre-crash
// state.
func checkRecovered(o *outcome, live, recovered *cluster.Cluster, def *view.Definition) error {
	for _, name := range []string{def.Alpha.Name, def.Name} {
		a, err := live.Gather(name)
		if err != nil {
			return err
		}
		b, err := recovered.Gather(name)
		if err != nil {
			return err
		}
		o.check("recovered "+name+" equals pre-crash state", a.Equal(b))
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// copyDir copies the directory tree src to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
