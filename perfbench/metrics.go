package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
)

// metric is one reported number and its unit. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
type metric struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics every untraced run prints.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"commit_p50_ms", "ms"},
	{"commit_tail_ms", "ms"},
	{"cells_per_s", "cells/s"},
	{"recover_s", "s"},
	{"space_amp", "ratio"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"peak_rss_mb", "MB"},
}

var maintPhases = []string{
	obs.PhaseValidate, obs.PhaseSnapshot, obs.PhaseTransfer, obs.PhaseJoin,
	obs.PhaseMerge, obs.PhaseCommit, obs.PhaseCleanup,
}

var streamStages = []string{"source", "router", "transfer", "join", "sink"}

// perLayer are the metrics a traced run prints, in layer order.
var perLayer = func() []metric {
	ms := []metric{
		{"view.triplegen_ms", "ms"},
		{"view.triples", "count"},
		{"maintain.plan_ms", "ms"},
		{"maintain.transfers", "count"},
		{"maintain.exec_ms", "ms"},
		{"maintain.model_eq1_ms", "ms"},
	}
	for _, p := range maintPhases {
		ms = append(ms, metric{"maintain.phase." + p + "_ms", "ms"})
	}
	ms = append(ms,
		metric{"adaptive.memo_hit_ratio", "ratio"},
		metric{"adaptive.plan_reuse_ratio", "ratio"},
		metric{"adaptive.deferred", "count"},
		metric{"adaptive.promotions", "count"},
		metric{"adaptive.drain_ms", "ms"},
	)
	for _, op := range opNames {
		ms = append(ms, metric{"fabric." + op + ".calls", "count"}, metric{"fabric." + op + ".busy_ms", "ms"})
	}
	ms = append(ms,
		metric{"fabric.bytes_out", "bytes"},
		metric{"fabric.bytes_in", "bytes"},
		metric{"fabric.dedup_hits", "count"},
		metric{"fabric.bytes_saved_ratio", "ratio"},
		metric{"transport.frames_out", "count"},
		metric{"transport.frames_in", "count"},
		metric{"transport.retries", "count"},
		metric{"transport.reconnects", "count"},
		metric{"transport.pool_hit_ratio", "ratio"},
		metric{"transport.remote_errors", "count"},
		metric{"wal.sync_calls", "count"},
		metric{"wal.sync_ms", "ms"},
		metric{"wal.write_bytes", "bytes"},
		metric{"wal.write_ms", "ms"},
		metric{"wal.checkpoints", "count"},
		metric{"wal.open_ms", "ms"},
		metric{"wal.install_ms", "ms"},
		metric{"storage.resident_bytes", "bytes"},
		metric{"storage.chunks", "count"},
	)
	for _, st := range streamStages {
		ms = append(ms,
			metric{"stream." + st + ".busy_s", "s"},
			metric{"stream." + st + ".stall_s", "s"},
			metric{"stream." + st + ".depth", "count"})
	}
	ms = append(ms,
		metric{"stream.router_reuse_ratio", "ratio"},
		metric{"stream.retries", "count"},
		metric{"stream.aborts", "count"},
		metric{"epochs.pins_peak", "count"},
		metric{"epochs.retained_bytes_peak", "bytes"},
		metric{"readcache.hit_ratio", "ratio"},
		metric{"viewcache.hit_ratio", "ratio"},
		metric{"viewcache.invalidations", "count"},
		metric{"fastpath.memo_hit_ratio", "ratio"},
		metric{"fastpath.solve_skips", "count"},
		metric{"query.hot_ms", "ms"},
		metric{"query.cold_ms", "ms"},
		metric{"serve.admitted", "count"},
		metric{"serve.rejected", "count"},
		metric{"serve.wire_ms", "ms"},
		metric{"serve.gen_late_ms", "ms"},
		metric{"trace.overhead_commit_p50_ms", "ms"},
	)
	return ms
}()

// outcome is what one run of a workload measured, pooled over the run's
// parts.
type outcome struct {
	// End-to-end samples; finish turns them into e2e.
	setup         []float64 // seconds
	restore       []float64 // seconds, the median at each restore point
	commit, query []float64 // milliseconds
	cells         int       // delta cells committed ...
	cellSecs      float64   // ... over this many seconds
	amps          []float64 // bytes stored per user byte
	good          int       // answers within queryLimit ...
	goodSecs      float64   // ... over this many seconds
	rss           []float64 // MB, each window's peak

	e2e    map[string]float64
	layers map[string]float64
	ratios map[string][2]int64
	// samples are per-layer values reported as their median.
	samples map[string][]float64
	// notes are the human-readable lines printed before the result: tail
	// percentiles with their sample counts, ratio bases, oracle verdicts.
	notes     []string
	attempted int
	failed    int
	// mismatches lists every oracle that failed; empty means correct.
	mismatches []string
}

func newOutcome() *outcome {
	return &outcome{
		e2e:     make(map[string]float64),
		layers:  make(map[string]float64),
		ratios:  make(map[string][2]int64),
		samples: make(map[string][]float64),
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records an oracle verdict.
func (o *outcome) check(name string, ok bool) {
	verdict := "pass"
	if !ok {
		verdict = "FAIL"
		o.mismatches = append(o.mismatches, name)
	}
	o.notef("oracle %s: %s", name, verdict)
}

// ratio adds num out of den to the named per-layer ratio.
func (o *outcome) ratio(name string, num, den int64) {
	r := o.ratios[name]
	o.ratios[name] = [2]int64{r[0] + num, r[1] + den}
}

// peak keeps the largest value seen for a per-layer metric.
func (o *outcome) peak(name string, v float64) { o.layers[name] = max(o.layers[name], v) }

// sample adds one value to a per-layer metric reported as a median.
func (o *outcome) sample(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// finish computes the reported metrics from the pooled samples.
func (o *outcome) finish() {
	o.e2e["setup_s"] = medianOf(o.setup)
	o.e2e["recover_s"] = mean(o.restore)
	o.e2e["cells_per_s"] = float64(o.cells) / o.cellSecs
	o.e2e["space_amp"] = mean(o.amps)
	o.e2e["peak_rss_mb"] = medianOf(o.rss)
	o.e2e["goodput_qps"] = float64(o.good) / o.goodSecs
	for _, l := range []struct {
		name string
		ms   []float64
	}{{"commit", o.commit}, {"query", o.query}} {
		ms := append([]float64(nil), l.ms...)
		sort.Float64s(ms)
		v, pct := tail(ms)
		o.e2e[l.name+"_p50_ms"] = median(ms)
		o.e2e[l.name+"_tail_ms"] = v
		o.notef("%s latency: p50 %.3f ms, tail p%s %.3f ms, %d samples", l.name, median(ms), pct, v, len(ms))
	}
	o.notef("goodput: %d answers within %v over %.3f s", o.good, queryLimit, o.goodSecs)
	names := make([]string, 0, len(o.ratios))
	for name := range o.ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := o.ratios[name]
		o.layers[name] = 0
		if r[1] > 0 {
			o.layers[name] = float64(r[0]) / float64(r[1])
		}
		o.notef("%s = %d/%d", name, r[0], r[1])
	}
	for name, xs := range o.samples {
		o.layers[name] = medianOf(xs)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(1, len(xs)))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func appendMillis(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, millis(d))
	}
	return dst
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// tail returns the highest percentile of the sorted values that has at
// least ten samples beyond it — the eleventh largest — and its label.
// With ten samples or fewer it is the maximum.
func tail(sorted []float64) (float64, string) {
	n := len(sorted)
	if n == 0 {
		return 0, "n/a"
	}
	if n <= 10 {
		return sorted[n-1], "100"
	}
	return sorted[n-11], strconv.FormatFloat(100*float64(n-10)/float64(n), 'f', 1, 64)
}

// resetPeakRSS returns the freed heap to the operating system and restarts
// the process's resident-set high-water mark, so that VmHWM read at the
// end of a timed window is that window's peak, not one left by an earlier
// window or oracle.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// A kernel that refuses the reset leaves VmHWM at the peak so far,
	// which can only overstate the window's peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// addReports folds maintenance reports into the view and maintain layers.
func (o *outcome) addReports(reps ...*maintain.Report) {
	for _, r := range reps {
		if r == nil {
			continue
		}
		o.layers["view.triplegen_ms"] += 1000 * r.TripleGenSeconds
		o.layers["view.triples"] += float64(r.NumTriples)
		o.layers["maintain.plan_ms"] += 1000 * (r.OptimizationSeconds - r.TripleGenSeconds)
		o.layers["maintain.transfers"] += float64(r.NumTransfers)
		o.layers["maintain.exec_ms"] += 1000 * r.ExecSeconds
		o.layers["maintain.model_eq1_ms"] += 1000 * r.MaintenanceSeconds
		o.addPhases(r.Trace)
	}
}

func (o *outcome) addPhases(t *obs.Trace) {
	for _, p := range maintPhases {
		o.layers["maintain.phase."+p+"_ms"] += 1000 * t.PhaseSeconds(p)
	}
}

// fabricTotals sums every node's storage footprint and traffic counters.
func fabricTotals(cl *cluster.Cluster) (cluster.FabricStats, error) {
	var tot cluster.FabricStats
	for i := 0; i < cl.NumNodes(); i++ {
		st, err := cl.Fabric().Stats(i)
		if err != nil {
			return tot, fmt.Errorf("fabric stats of node %d: %w", i, err)
		}
		tot.NumChunks += st.NumChunks
		tot.Bytes += st.Bytes
		n, s := &tot.Net, st.Net
		n.BytesOut += s.BytesOut
		n.BytesIn += s.BytesIn
		n.FramesOut += s.FramesOut
		n.FramesIn += s.FramesIn
		n.Retries += s.Retries
		n.Reconnects += s.Reconnects
		n.PoolHits += s.PoolHits
		n.PoolMisses += s.PoolMisses
		n.RemoteErrors += s.RemoteErrors
		n.DedupHits += s.DedupHits
		n.BytesSavedDedup += s.BytesSavedDedup
		n.BytesSavedDelta += s.BytesSavedDelta
		n.BytesSavedCompress += s.BytesSavedCompress
	}
	return tot, nil
}

// fabricLayers records the data-plane metrics of the timed window: the
// wrapper's per-operation counts and busy time, and the fabric's traffic
// counters as the difference between two totals.
func (o *outcome) fabricLayers(tf *tracedFabric, before, after cluster.FabricStats) {
	for op, name := range opNames {
		o.layers["fabric."+name+".calls"] += float64(tf.calls[op].Load())
		o.layers["fabric."+name+".busy_ms"] += float64(tf.nanos[op].Load()) / 1e6
	}
	a, b := after.Net, before.Net
	out := a.BytesOut - b.BytesOut
	saved := (a.BytesSavedDedup - b.BytesSavedDedup) + (a.BytesSavedDelta - b.BytesSavedDelta) +
		(a.BytesSavedCompress - b.BytesSavedCompress)
	o.layers["fabric.bytes_out"] += float64(out)
	o.layers["fabric.bytes_in"] += float64(a.BytesIn - b.BytesIn)
	o.layers["fabric.dedup_hits"] += float64(a.DedupHits - b.DedupHits)
	o.ratio("fabric.bytes_saved_ratio", saved, out+saved)
	o.layers["transport.frames_out"] += float64(a.FramesOut - b.FramesOut)
	o.layers["transport.frames_in"] += float64(a.FramesIn - b.FramesIn)
	o.layers["transport.retries"] += float64(a.Retries - b.Retries)
	o.layers["transport.reconnects"] += float64(a.Reconnects - b.Reconnects)
	hits := a.PoolHits - b.PoolHits
	o.ratio("transport.pool_hit_ratio", hits, hits+a.PoolMisses-b.PoolMisses)
	o.layers["transport.remote_errors"] += float64(a.RemoteErrors - b.RemoteErrors)
	o.peak("storage.resident_bytes", float64(after.Bytes))
	o.peak("storage.chunks", float64(after.NumChunks))
}

// epochPeaks tracks the highest pin count and retained bytes seen.
type epochPeaks struct{ pins, bytes int64 }

func (p *epochPeaks) sample(cl *cluster.Cluster) {
	st := cl.Epochs().Stats()
	p.pins = max(p.pins, int64(st.Pins))
	p.bytes = max(p.bytes, st.RetainedBytes)
}

func (p *epochPeaks) record(o *outcome) {
	o.peak("epochs.pins_peak", float64(p.pins))
	o.peak("epochs.retained_bytes_peak", float64(p.bytes))
}
