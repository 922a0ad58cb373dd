package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

// TestWorkloadsTiny runs every workload at test scale, untraced and
// traced: each must finish with no failures, pass every oracle, and print
// every metric BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 2, trace: traced, workdir: t.TempDir(), tiny: true}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	same := func(label string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", label, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", label, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestWrappedFabricSameState applies the same batches with and without
// the tracing wrappers, on both fabrics, and requires byte-identical base
// and view chunks — and the same optional fabric capabilities.
func TestWrappedFabricSameState(t *testing.T) {
	spec := bench.SmallSpec(bench.PTF5, workload.Real)
	spec.PTF.NumBatches = 3
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tcp := range []bool{false, true} {
		var states [2]map[string][]byte
		var caps [2][3]bool
		for i, rec := range []*recorder{nil, newRecorder()} {
			var cl *cluster.Cluster
			if tcp {
				c, _, stop, err := newTCPCluster(spec, rec)
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				cl = c
			} else {
				c, _, err := newLocalCluster(spec, rec)
				if err != nil {
					t.Fatal(err)
				}
				cl = c
			}
			_, j := cl.Fabric().(cluster.JoinFabric)
			_, w := cl.Fabric().(cluster.WireFabric)
			_, r := cl.Fabric().(viewRegistrar)
			caps[i] = [3]bool{j, w, r}
			def, err := loadView(cl, spec, data, spec.Placement())
			if err != nil {
				t.Fatal(err)
			}
			if !tcp {
				var fs wal.FS = wal.NewOSFS(t.TempDir())
				if rec != nil {
					fs = timedFS{fs, &walTiming{rec: rec}}
				}
				d, _, err := wal.Open(fs, spec.Nodes, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Attach(cl); err != nil {
					t.Fatal(err)
				}
				defer d.Close()
			}
			m, err := maintain.NewMaintainer(cl, def, nil, spec.Params)
			if err != nil {
				t.Fatal(err)
			}
			m.SetPlacements(spec.Placement(), spec.Placement())
			for _, b := range data.Batches {
				if _, err := m.ApplyBatch(b.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			states[i] = encodedState(t, cl, def.Alpha.Name, def.Name)
		}
		if caps[0] != caps[1] {
			t.Errorf("tcp=%v: wrapped fabric capabilities %v, inner %v", tcp, caps[1], caps[0])
		}
		if len(states[0]) != len(states[1]) {
			t.Fatalf("tcp=%v: %d chunks unwrapped, %d wrapped", tcp, len(states[0]), len(states[1]))
		}
		for k, v := range states[0] {
			if !bytes.Equal(v, states[1][k]) {
				t.Errorf("tcp=%v: chunk %s differs between wrapped and unwrapped runs", tcp, k)
			}
		}
	}
}

// encodedState gathers the named arrays and encodes every chunk.
func encodedState(t *testing.T, cl *cluster.Cluster, names ...string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, n := range names {
		a, err := cl.Gather(n)
		if err != nil {
			t.Fatal(err)
		}
		a.EachChunk(func(c *array.Chunk) bool {
			out[n+"/"+string(c.Key())] = array.EncodeChunk(c)
			return true
		})
	}
	return out
}

func TestTailAndCoverage(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 30 || pct != "75.0" {
		t.Errorf("tail of 1..40 = %v p%s, want 30 p75.0", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != "100" {
		t.Errorf("tail of 1..5 = %v p%s, want 5 p100", v, pct)
	}
	// Children [2,5] and [4,8] inside [0,10] cover 6 of it.
	if got := covered([][2]int64{{4, 8}, {2, 5}}, 0, 10); got != 6 {
		t.Errorf("covered = %d, want 6", got)
	}
}
