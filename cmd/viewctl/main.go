// Command viewctl is a quick inspection tool: it builds a dataset and
// view, applies batches with a chosen strategy, and prints the plan,
// per-node ledger, and verification status for each batch.
//
// Usage:
//
//	viewctl -dataset PTF-5 -mode correlated -strategy reassign -batches 5
//	viewctl -dataset GEO -strategy baseline -verify
//
// With -serve it is instead a client for an ivmserve daemon started with
// the same dataset flags: -query issues one snapshot-isolated query and
// -stats prints the daemon's statistics document as indented JSON.
//
//	viewctl -dataset PTF-5 -serve 127.0.0.1:7420 -query view
//	viewctl -dataset PTF-5 -serve 127.0.0.1:7420 -query linf:2 -qmode complete
//	viewctl -dataset PTF-5 -serve 127.0.0.1:7420 -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

func main() {
	var (
		dataset  = flag.String("dataset", "PTF-5", "PTF-5|PTF-25|GEO")
		modeName = flag.String("mode", "", "real|random|correlated|periodic")
		strategy = flag.String("strategy", "reassign", "baseline|differential|reassign")
		batches  = flag.Int("batches", 0, "limit number of batches (default: all)")
		small    = flag.Bool("small", true, "use the test-scale dataset")
		verify   = flag.Bool("verify", false, "verify the view against recomputation after each batch")
		expire   = flag.Bool("expire", false, "after the batches, delete the oldest slab and maintain the retraction")
		distrib  = flag.Bool("distributed", false, "run the data plane over TCP node daemons instead of in-process stores")
		connect  = flag.String("connect", "", "comma-separated ivmnode addresses (with -distributed; default: spawn loopback daemons)")
		serveAt  = flag.String("serve", "", "ivmserve daemon address; switches viewctl into query-client mode")
		querySp  = flag.String("query", "", "query shape: \"view\", or kind:radius with kind l1|l2|linf (with -serve)")
		qmode    = flag.String("qmode", "auto", "auto|view|complete (with -serve -query)")
		stats    = flag.Bool("stats", false, "print the serving daemon's statistics as JSON (with -serve)")
	)
	flag.Parse()

	var err error
	if *serveAt != "" {
		err = runClient(*dataset, *modeName, *small, *serveAt, *querySp, *qmode, *stats)
	} else {
		err = run(*dataset, *modeName, *strategy, *batches, *small, *verify, *expire, *distrib, *connect)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "viewctl:", err)
		os.Exit(1)
	}
}

// runClient speaks to an ivmserve daemon. The daemon and client must be
// started with the same dataset flags: the view definition (and so the
// result schema) is derived from the deterministic dataset generator rather
// than shipped over the wire.
func runClient(dataset, modeName string, small bool, addr, querySpec, qmode string, stats bool) error {
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
	def, err := spec.ViewFor(data)
	if err != nil {
		return err
	}
	c, err := serve.NewClient(addr, def.Schema(), nil)
	if err != nil {
		return err
	}
	defer c.Close()

	if stats {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		if err := obs.WriteJSON(os.Stdout, st); err != nil {
			return err
		}
	}
	if querySpec == "" {
		if !stats {
			return fmt.Errorf("nothing to do: pass -query or -stats with -serve")
		}
		return nil
	}

	sh, err := parseQueryShape(def, querySpec)
	if err != nil {
		return err
	}
	var m query.Mode
	switch qmode {
	case "auto":
		m = query.Auto
	case "view":
		m = query.ForceView
	case "complete":
		m = query.ForceComplete
	default:
		return fmt.Errorf("unknown query mode %q", qmode)
	}
	res, err := c.Query(sh, m)
	if err != nil {
		return err
	}
	path := "complete join"
	if res.UseView {
		path = "differential (via view)"
	}
	fmt.Printf("query %s: %d groups at epoch %d, answered by %s\n",
		sh, res.Array.NumCells(), res.Epoch, path)
	return nil
}

// parseQueryShape resolves the -query flag: "view" (or empty) reuses the
// view's own shape; "l1:R", "l2:R", "linf:R" build an Lp ball of radius R
// over the base array's dimensionality.
func parseQueryShape(def *view.Definition, s string) (*shape.Shape, error) {
	if s == "" || s == "view" {
		return def.Pred.Shape, nil
	}
	kind, radiusStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("bad -query %q: want \"view\" or kind:radius", s)
	}
	r, err := strconv.ParseInt(radiusStr, 10, 64)
	if err != nil || r < 0 {
		return nil, fmt.Errorf("bad -query radius %q", radiusStr)
	}
	dims := len(def.Alpha.Dims)
	switch strings.ToLower(kind) {
	case "l1":
		return shape.L1(dims, r), nil
	case "l2":
		return shape.L2(dims, r), nil
	case "linf":
		return shape.Linf(dims, r), nil
	default:
		return nil, fmt.Errorf("unknown query shape kind %q", kind)
	}
}

func run(dataset, modeName, strategy string, batches int, small, verify, expire, distrib bool, connect string) error {
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
	var cl *cluster.Cluster
	if distrib {
		cl, err = distributedCluster(spec, connect)
	} else {
		cl, err = spec.Cluster()
	}
	if err != nil {
		return err
	}
	if err := cl.LoadArray(data.Base, &cluster.RoundRobin{}); err != nil {
		return err
	}
	def, err := spec.ViewFor(data)
	if err != nil {
		return err
	}
	if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		return err
	}
	m, err := maintain.NewMaintainer(cl, def, planner, spec.Params)
	if err != nil {
		return err
	}

	fmt.Printf("view: %s\n", def)
	fabricName := "in-process"
	if distrib {
		fabricName = "tcp"
	}
	fmt.Printf("cluster: %d nodes (%s fabric); base: %d cells in %d chunks\n\n",
		cl.NumNodes(), fabricName, data.Base.NumCells(), data.Base.NumChunks())

	toRun := data.Batches
	if batches > 0 && batches < len(toRun) {
		toRun = toRun[:batches]
	}
	for i, batch := range toRun {
		rep, err := m.ApplyBatch(batch)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i+1, err)
		}
		fmt.Printf("batch %d: %d cells in %d chunks\n", i+1, batch.NumCells(), batch.NumChunks())
		fmt.Printf("  %s\n", rep.Plan)
		fmt.Printf("  units=%d triples=%d\n", rep.NumUnits, rep.NumTriples)
		fmt.Printf("  maintenance=%.4fs (simulated)  optimization=%.6fs (measured)\n",
			rep.MaintenanceSeconds, rep.OptimizationSeconds)
		fmt.Printf("  ledger: %s\n", rep.Ledger)
		if distrib {
			if s := rep.Trace.String(); s != "" {
				fmt.Printf("  spans: %s\n", s)
			}
		}
		if verify {
			if err := verifyView(cl, def); err != nil {
				return fmt.Errorf("batch %d: %w", i+1, err)
			}
			fmt.Printf("  verified: view equals recomputation\n")
		}
	}
	if expire {
		base, err := cl.Gather(def.Alpha.Name)
		if err != nil {
			return err
		}
		// Retract the cells of the oldest first-dimension slab.
		cut := base.Schema().Dims[0].Start + base.Schema().Dims[0].ChunkSize
		del := array.New(base.Schema())
		base.EachCell(func(p array.Point, tup array.Tuple) bool {
			if p[0] < cut {
				_ = del.Set(p, tup)
			}
			return true
		})
		if del.NumCells() == 0 {
			fmt.Println("expire: nothing to retract")
			return nil
		}
		rep, err := m.ApplyDelete(del)
		if err != nil {
			return fmt.Errorf("expire: %w", err)
		}
		fmt.Printf("expired %d cells: maintenance=%.4fs (simulated)\n", del.NumCells(), rep.MaintenanceSeconds)
		if verify {
			if err := verifyView(cl, def); err != nil {
				return fmt.Errorf("expire: %w", err)
			}
			fmt.Printf("  verified: view equals recomputation\n")
		}
	}
	return nil
}

// distributedCluster builds a cluster whose data plane is a TCPFabric:
// either connected to externally-run ivmnode daemons (connect is a
// comma-separated address list) or to loopback daemons spawned in-process.
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

func verifyView(cl *cluster.Cluster, def *view.Definition) error {
	base, err := cl.Gather(def.Alpha.Name)
	if err != nil {
		return err
	}
	got, err := cl.Gather(def.Name)
	if err != nil {
		return err
	}
	want, err := view.Materialize(def, base, base)
	if err != nil {
		return err
	}
	// Retractions can leave zero-state cells that a recomputation omits;
	// treat those as equal to absent.
	equal := true
	check := func(x, y *array.Array) {
		x.EachCell(func(p array.Point, tup array.Tuple) bool {
			other, found := y.Get(p)
			if !found {
				for _, v := range tup {
					if v != 0 {
						equal = false
						return false
					}
				}
				return true
			}
			for i := range tup {
				if other[i] != tup[i] {
					equal = false
					return false
				}
			}
			return true
		})
	}
	check(got, want)
	check(want, got)
	if !equal {
		return fmt.Errorf("view diverges from recomputation")
	}
	return nil
}
