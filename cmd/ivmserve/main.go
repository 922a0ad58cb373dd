// Command ivmserve is the query-serving daemon: it builds (or connects to)
// a cluster, loads a dataset, materializes the view, and then answers
// shape-based similarity-join queries over the transport frame protocol at
// snapshot isolation — while applying maintenance batches in the
// background. Point viewctl -serve at it to query.
//
// Usage:
//
//	ivmserve -dataset PTF-5 -listen :7420 -interval 500ms
//	ivmserve -dataset PTF-5 -stream -interval 100ms
//	ivmserve -dataset GEO -distributed -listen 127.0.0.1:7420
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/stream"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

func main() {
	var (
		dataset  = flag.String("dataset", "PTF-5", "PTF-5|PTF-25|GEO")
		modeName = flag.String("mode", "", "real|random|correlated|periodic")
		strategy = flag.String("strategy", "reassign", "baseline|differential|reassign")
		small    = flag.Bool("small", true, "use the test-scale dataset")
		distrib  = flag.Bool("distributed", false, "run the data plane over TCP node daemons instead of in-process stores")
		connect  = flag.String("connect", "", "comma-separated ivmnode addresses (with -distributed; default: spawn loopback daemons)")
		listen   = flag.String("listen", "127.0.0.1:7420", "query-serving listen address")
		interval = flag.Duration("interval", 500*time.Millisecond, "delay between background maintenance batches (0 disables maintenance)")
		streamed = flag.Bool("stream", false, "maintain through the pipelined streaming graph instead of batch-at-a-time (self-join views only)")
		adaptive = flag.Bool("adaptive", false, "heavy-light adaptive maintenance: eager hot chunks, lazy cold chunks materialized on query touch (self-join views only)")
		metrics  = flag.String("metrics", "", "serve JSON health metrics over HTTP on this address (host:port; empty disables)")
		batches  = flag.Int("batches", 0, "limit background batches (default: all, then idle)")
		conc     = flag.Int("concurrency", 0, "max concurrent queries (default 8)")
		queue    = flag.Int("queue", 0, "admission queue depth (default 2x concurrency)")
		qtimeout = flag.Duration("qtimeout", 0, "per-query deadline (default 30s)")
		dataDir  = flag.String("data-dir", "", "WAL-backed durable chunk store directory; recovers committed state on startup (in-process stores only)")
		vcache   = flag.Int64("view-cache", 0, "assembled-view cache budget in bytes (default 256MiB; negative disables view caching)")
	)
	flag.Parse()

	if err := run(*dataset, *modeName, *strategy, *small, *distrib, *connect,
		*listen, *metrics, *dataDir, *interval, *streamed, *adaptive, *batches, *conc, *queue, *qtimeout,
		*vcache); err != nil {
		fmt.Fprintln(os.Stderr, "ivmserve:", err)
		os.Exit(1)
	}
}

func run(dataset, modeName, strategy string, small, distrib bool, connect,
	listen, metrics, dataDir string, interval time.Duration, streamed, adaptive bool, batches, conc, queue int, qtimeout time.Duration,
	vcache int64) error {
	if dataDir != "" && distrib {
		return fmt.Errorf("-data-dir journals in-process stores; it cannot be combined with -distributed")
	}
	ds, err := bench.ParseDataset(dataset)
	if err != nil {
		return err
	}
	mode := workload.Real
	if ds == bench.GEO {
		mode = workload.Random
	}
	if modeName != "" {
		if mode, err = workload.ParseMode(modeName); err != nil {
			return err
		}
	}
	planner, ok := maintain.Strategies()[strategy]
	if !ok {
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	var spec bench.Spec
	if small {
		spec = bench.SmallSpec(ds, mode)
	} else {
		spec = bench.DefaultSpec(ds, mode)
	}

	data, err := spec.Generate()
	if err != nil {
		return err
	}
	// With -data-dir the chunk stores are WAL-backed: an earlier run's
	// committed state is recovered before serving, and every commit from
	// here on is durable against kill -9.
	var dur *wal.Durable
	var rec *wal.Recovered
	if dataDir != "" {
		if dur, rec, err = wal.Open(wal.NewOSFS(dataDir), spec.Nodes, wal.Options{}); err != nil {
			return fmt.Errorf("durable store: %w", err)
		}
	}
	var cl *cluster.Cluster
	if distrib {
		cl, err = distributedCluster(spec, connect)
	} else {
		cl, err = spec.Cluster()
	}
	if err != nil {
		return err
	}
	def, err := spec.ViewFor(data)
	if err != nil {
		return err
	}
	applied := 0
	if rec != nil {
		if err := rec.Install(cl); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		// The recovered catalog already holds the base, the view, and the
		// pending log; resume the input feed at the durable applied-batch
		// cursor. Barrier Seq is NOT a batch index — adaptive and streamed
		// maintenance write extra barriers (deferred-delta appends,
		// materializations, rollback/retry pairs) — so only retiring
		// barriers advance Applied.
		applied = int(rec.Applied)
		if applied > len(data.Batches) {
			applied = len(data.Batches)
		}
		fmt.Printf("recovered %s at barrier %d (%s), %d batches applied, epoch %d\n",
			dataDir, rec.Seq, rec.Kind, rec.Applied, rec.Epoch)
	} else {
		if err := cl.LoadArray(data.Base, &cluster.RoundRobin{}); err != nil {
			return err
		}
		if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
			return err
		}
	}
	if dur != nil {
		if err := dur.Attach(cl); err != nil {
			return fmt.Errorf("durable store: %w", err)
		}
	}
	if streamed && !def.SelfJoin() {
		return fmt.Errorf("-stream supports self-join views only (use a PTF dataset)")
	}
	if adaptive && !def.SelfJoin() {
		return fmt.Errorf("-adaptive supports self-join views only (use a PTF dataset)")
	}
	eng, err := query.NewEngine(cl, def, spec.Params)
	if err != nil {
		return err
	}
	srv := serve.NewServer(eng, &serve.Config{
		MaxConcurrent:  conc,
		QueueDepth:     queue,
		QueryTimeout:   qtimeout,
		ViewCacheBytes: vcache,
	})
	// With -adaptive, hot chunks maintain eagerly, cold-chunk deltas defer
	// to the pending log, and the serving path materializes them before
	// pinning a snapshot — queries stay exact, cold maintenance becomes
	// pay-on-read. Otherwise every batch maintains eagerly.
	var am *maintain.AdaptiveMaintainer
	var m *maintain.Maintainer
	if adaptive {
		counters := &obs.AdaptiveCounters{}
		cfg := maintain.DefaultAdaptiveConfig()
		cfg.Project = maintain.DropDims(0)
		cfg.Counters = counters
		if am, err = maintain.NewAdaptiveMaintainer(cl, def, planner, spec.Params, cfg); err != nil {
			return err
		}
		srv.SetFresh(am.EnsureFresh, counters)
	} else if m, err = maintain.NewMaintainer(cl, def, planner, spec.Params); err != nil {
		return err
	}
	if dur != nil {
		srv.SetDurable(dur.Counters())
	}
	if err := srv.Listen(listen); err != nil {
		return err
	}
	defer srv.Close()
	if metrics != "" {
		ms, err := obs.ServeJSON(metrics, func() any { return srv.Stats() })
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s\n", ms.Addr())
	}
	fmt.Printf("view: %s\n", def)
	fmt.Printf("cluster: %d nodes; base: %d cells in %d chunks\n",
		cl.NumNodes(), data.Base.NumCells(), data.Base.NumChunks())
	fmt.Printf("serving queries on %s at epoch %d\n", srv.Addr(), cl.Epochs().Current())

	// Background maintenance: each batch commits and publishes a new epoch
	// while queries keep answering against their pinned snapshots.
	stop := make(chan struct{})
	maintDone := make(chan struct{})
	go func() {
		defer close(maintDone)
		if interval <= 0 {
			return
		}
		toRun := data.Batches
		if batches > 0 && batches < len(toRun) {
			toRun = toRun[:batches]
		}
		total := len(toRun)
		if applied >= total {
			toRun = nil
		} else {
			toRun = toRun[applied:]
		}
		if streamed {
			runStreamed(cl, def, planner, am, spec, toRun, applied, total, interval, stop)
			return
		}
		for i, b := range toRun {
			n := applied + i + 1
			select {
			case <-stop:
				return
			case <-time.After(interval):
			}
			var before uint64
			if dur != nil {
				before = dur.Applied()
			}
			if am != nil {
				if rep, err := am.ApplyBatch(b); err != nil {
					fmt.Fprintf(os.Stderr, "ivmserve: batch %d failed (rolled back): %v\n", n, err)
				} else {
					fmt.Printf("batch %d/%d committed; epoch %d (%d eager, %d deferred)\n",
						n, total, cl.Epochs().Current(), rep.HeavyChunks, rep.LightChunks)
				}
			} else if _, err := m.ApplyBatch(b); err != nil {
				fmt.Fprintf(os.Stderr, "ivmserve: batch %d failed (rolled back): %v\n", n, err)
			} else {
				fmt.Printf("batch %d/%d committed; epoch %d\n", n, total, cl.Epochs().Current())
			}
			if dur != nil && dur.Applied() == before {
				// The batch terminated without a retiring barrier — it
				// failed (rolled back) or was a no-op that wrote no barrier
				// at all. Record the skip so a restart resumes after it
				// rather than replaying it against state that has moved on.
				if err := dur.RetireBarrier(); err != nil {
					fmt.Fprintf(os.Stderr, "ivmserve: batch %d skip barrier: %v\n", n, err)
				}
			}
		}
		fmt.Printf("maintenance drained: %d batches applied\n", len(toRun))
		if am != nil {
			st := am.Stats()
			fmt.Printf("adaptive: heavy=%d/%d pending=%d entries (%d cells) memo=%d/%d hits/misses\n",
				st.HeavyClasses, st.SeenClasses, st.Pending.Entries, st.Pending.Cells,
				st.Memo.Hits, st.Memo.Misses)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	// Graceful shutdown: stop admitting queries, drain the maintenance
	// loop (the streaming sink included), materialize any deferred
	// light-chunk deltas through the normal commit path, and only then
	// fsync and close the WAL — an acknowledged batch is never lost.
	close(stop)
	srv.Close()
	<-maintDone
	if am != nil {
		if err := am.EnsureFresh(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "ivmserve: draining pending deltas: %v\n", err)
		}
	}
	st := srv.Stats()
	fmt.Printf("final: epoch=%d queries=%d rejected=%d cache-hit-rate=%.2f retained=%dB\n",
		st.Epoch, st.Queries, st.Rejected, st.HitRate(), st.RetainedBytes)
	if fp := st.FastPath; fp.ViewHits+fp.ViewMisses+fp.MemoHits+fp.MemoMisses > 0 {
		fmt.Printf("fast path: view=%d/%d hits/misses (%dB cached, %d evicted, %d invalidated) memo=%d/%d solves-skipped=%d\n",
			fp.ViewHits, fp.ViewMisses, fp.ViewBytes, fp.ViewEvictions, fp.ViewInvalidations,
			fp.MemoHits, fp.MemoMisses, fp.SolveSkips)
	}
	if dur != nil {
		d := st.Durable
		fmt.Printf("durable: commits=%d rollbacks=%d checkpoints=%d wal=%dB seg=%dB fsyncs=%d\n",
			d.Commits, d.Rollbacks, d.Checkpoints, d.WALBytes, d.SegBytes, d.Syncs)
		if err := dur.Close(); err != nil {
			return fmt.Errorf("durable store close: %w", err)
		}
	}
	return nil
}

// runStreamed feeds the background batches through the pipelined operator
// graph instead of batch-at-a-time maintenance: later batches enter the
// transfer stage while earlier ones are still joining, commits stay in
// admission order, and queries keep serving from pinned snapshots
// throughout. On shutdown the pipeline drains in-flight batches and prints
// its per-stage counters.
func runStreamed(cl *cluster.Cluster, def *view.Definition, planner maintain.Planner,
	am *maintain.AdaptiveMaintainer, spec bench.Spec, toRun []*array.Array, applied, total int, interval time.Duration, stop <-chan struct{}) {
	g, err := stream.NewGraph(stream.Config{
		Cluster:        cl,
		Def:            def,
		Planner:        planner,
		Params:         spec.Params,
		ArrayPlacement: &cluster.RoundRobin{},
		ViewPlacement:  &cluster.RoundRobin{},
		Adaptive:       am,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmserve: streaming graph: %v\n", err)
		return
	}
	var wg sync.WaitGroup
feed:
	for i, b := range toRun {
		select {
		case <-stop:
			break feed
		case <-time.After(interval):
		}
		tk, err := g.Submit(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivmserve: submit %d: %v\n", applied+i+1, err)
			break
		}
		wg.Add(1)
		go func(n int, tk *stream.Ticket) {
			defer wg.Done()
			res := tk.Wait()
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "ivmserve: batch %d failed (rolled back): %v\n", n, res.Err)
				return
			}
			fmt.Printf("batch %d/%d committed; epoch %d (plan %s, %d retries)\n",
				n, total, res.Epoch, map[bool]string{true: "reused", false: "solved"}[res.Reused], res.Retries)
		}(applied+i+1, tk)
	}
	g.Drain()
	wg.Wait()
	st := g.Stats()
	fmt.Printf("pipeline drained: solves=%d reuses=%d retries=%d aborts=%d\n",
		st.Router.Solves, st.Router.Reuses, st.Retries, st.Aborts)
	for _, sg := range st.Stages {
		fmt.Printf("  stage %-9s entered=%d done=%d stalls=%d stall=%.3fs busy=%.3fs\n",
			sg.Name, sg.Entered, sg.Done, sg.Stalls, sg.StallSeconds, sg.BusySeconds)
	}
}

// distributedCluster builds a cluster whose data plane is a TCPFabric:
// either connected to externally-run ivmnode daemons or to loopback daemons
// spawned in-process.
func distributedCluster(spec bench.Spec, connect string) (*cluster.Cluster, error) {
	var addrs []string
	if connect != "" {
		for _, a := range strings.Split(connect, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		fmt.Printf("connecting to %d node daemons\n", len(addrs))
	} else {
		lc, err := transport.StartLoopback(spec.Nodes, nil)
		if err != nil {
			return nil, err
		}
		addrs = lc.Addrs
		fmt.Printf("spawned %d loopback node daemons\n", len(addrs))
	}
	fab, err := transport.NewTCPFabric(addrs, transport.DefaultClientConfig())
	if err != nil {
		return nil, err
	}
	return cluster.New(len(addrs),
		cluster.WithWorkersPerNode(spec.Workers), cluster.WithFabric(fab))
}
