package serve

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/shape"
)

// fillCounters stores a distinct large value in every obs.Counter field of
// the struct ptr points to, so a field dropped or truncated on the way to
// the client cannot go unnoticed.
func fillCounters(ptr any, seed int64) {
	v := reflect.ValueOf(ptr).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*obs.Counter).Store(1<<62 + seed*100 + int64(i))
	}
}

// disjointBatch draws n cells at points the base leaves empty and returns
// the batch together with base ∪ batch.
func disjointBatch(t *testing.T, base *array.Array, seed int64, n int) (*array.Array, *array.Array) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch := array.New(base.Schema())
	all := array.New(base.Schema())
	base.EachCell(func(p array.Point, tup array.Tuple) bool {
		_ = all.Set(p, tup)
		return true
	})
	for batch.NumCells() < n {
		p := array.Point{rng.Int63n(40), rng.Int63n(40)}
		if _, taken := all.Get(p); taken {
			continue
		}
		tup := array.Tuple{float64(rng.Intn(5) + 1)}
		if err := batch.Set(p, tup); err != nil {
			t.Fatal(err)
		}
		_ = all.Set(p, tup)
	}
	return batch, all
}

// TestClientStatsMatchServer checks that the snapshot RPC carries the whole
// statistics document: at a quiescent point the client's copy equals the
// server's, every nested counter group included.
func TestClientStatsMatchServer(t *testing.T) {
	eng, base, m := testEngine(t, 17, shape.Linf(2, 2))
	srv := NewServer(eng, nil)
	adaptive, durable := &obs.AdaptiveCounters{}, &obs.DurableCounters{}
	fillCounters(adaptive, 1)
	fillCounters(durable, 2)
	srv.SetFresh(nil, adaptive)
	srv.SetDurable(durable)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(srv.Addr(), eng.Def.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch, _ := disjointBatch(t, base, 18, 20)
	if _, err := m.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, sh := range []*shape.Shape{shape.Linf(2, 2), shape.Linf(2, 2), shape.L1(2, 3)} {
		if _, err := c.Query(sh, query.Auto); err != nil {
			t.Fatal(err)
		}
	}

	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := srv.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats over the wire differ from the server's:\n got %+v\nwant %+v", got, want)
	}
	if want.Epoch < 2 || want.Queries != 3 || want.FastPath.MemoHits == 0 {
		t.Fatalf("quiescent stats did not move: %+v", want)
	}
}

// TestServeAdaptiveDeferredMatchesReference runs the serving path over an
// adaptive maintainer that classifies every chunk light: a wire query must
// first materialize the pending log and then return the single-node
// from-scratch answer, whether the hook comes through SetFresh or is
// already set on the engine the server wraps.
func TestServeAdaptiveDeferredMatchesReference(t *testing.T) {
	for _, viaEngine := range []bool{false, true} {
		name := map[bool]string{false: "SetFresh", true: "Engine.Fresh"}[viaEngine]
		t.Run(name, func(t *testing.T) {
			eng, base, _ := testEngine(t, 21, shape.Linf(2, 2))
			counters := &obs.AdaptiveCounters{}
			am, err := maintain.NewAdaptiveMaintainer(eng.Cluster, eng.Def, nil, maintain.DefaultParams(),
				maintain.AdaptiveConfig{HeavyThreshold: math.MaxFloat64, Hysteresis: 0.5, Counters: counters})
			if err != nil {
				t.Fatal(err)
			}
			batch, all := disjointBatch(t, base, 22, 40)
			rep, err := am.ApplyBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			// Chunks new to the base are light and defer; the rest overwrite
			// base chunks and maintain eagerly.
			if rep.LightChunks == 0 {
				t.Fatalf("no chunk deferred: %d light, %d heavy chunks", rep.LightChunks, rep.HeavyChunks)
			}

			var srv *Server
			if viaEngine {
				eng.Fresh = am.EnsureFresh
				srv = NewServer(eng, nil)
			} else {
				srv = NewServer(eng, nil)
				srv.SetFresh(am.EnsureFresh, counters)
			}
			viewShape := eng.Def.Pred.Shape
			want := reference(t, eng, all, viewShape)
			// The committed view must still lack the deferred cells, or this
			// test could not tell a skipped hook from a run one.
			snap, err := eng.Cluster.Epochs().Acquire()
			if err != nil {
				t.Fatal(err)
			}
			stale, err := srv.Engine().AnswerSnapshot(context.Background(), snap, nil, viewShape, query.ForceView)
			snap.Release()
			if err != nil {
				t.Fatal(err)
			}
			if statesEqual(stale.Array, want) {
				t.Fatal("deferred deltas already visible before any query")
			}

			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := NewClient(srv.Addr(), eng.Def.Schema(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, q := range []struct {
				sh   *shape.Shape
				mode query.Mode
			}{
				{viewShape, query.Auto},
				{shape.Linf(2, 1), query.ForceView},
				{shape.L1(2, 3), query.ForceComplete},
			} {
				res, err := c.Query(q.sh, q.mode)
				if err != nil {
					t.Fatal(err)
				}
				if !statesEqual(res.Array, reference(t, eng, all, q.sh)) {
					t.Fatalf("%s (mode %d): wire answer diverges from the single-node reference", q.sh, q.mode)
				}
			}
			if st := am.Stats(); st.Pending.Entries != 0 {
				t.Fatalf("pending log not materialized by the query: %+v", st.Pending)
			}
			if !viaEngine {
				st, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Adaptive.Deferred == 0 || st.Adaptive.LazyMats == 0 {
					t.Fatalf("adaptive counters not surfaced: %+v", st.Adaptive)
				}
			}
		})
	}
}
