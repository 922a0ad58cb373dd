// Command perfbench is the repository's benchmark: it runs one named
// workload against the system with inputs generated from a seed, checks
// every output against single-node from-scratch evaluation, and prints the
// metrics as one JSON object on its last line of output.
//
// Usage, from the repository root (run.sh builds it first):
//
//	perfbench --workload ingest|serve|revisit --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 the workload runs twice, untraced and then traced,
// and the result holds the per-layer metrics of the traced run; the
// tracing overhead is the difference between the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var workloads = map[string]func(config, *recorder, *outcome) error{
	"ingest":  runIngest,
	"serve":   runServe,
	"revisit": runRevisit,
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, serve or revisit")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the workload traced as well and prints per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temporary data and span files")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation, printing its notes to w, and returns the
// result to print.
func run(cfg config, w io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, serve or revisit)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := cfg
	base.workdir = dir

	fmt.Fprintln(w, stamp(cfg))
	// runParts runs the workload once per part, each part on data from
	// its own seed, and pools the samples.
	runParts := func(rec *recorder) (*outcome, error) {
		o := newOutcome()
		for p := 0; p < parts; p++ {
			pc := base
			pc.seed = cfg.seed*parts + int64(p)
			o.notef("part %d: seed %d", p, pc.seed)
			if err := fn(pc, rec, o); err != nil {
				return nil, fmt.Errorf("%s part %d: %w", cfg.workload, p, err)
			}
		}
		o.finish()
		return o, nil
	}
	plain, err := runParts(nil)
	if err != nil {
		return nil, err
	}
	printOutcome(w, "untraced", plain)
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: make(map[string]metricValue)}
	mismatches := plain.mismatches

	if !cfg.trace {
		for _, m := range endToEnd {
			v, ok := plain.e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", cfg.workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		rec := newRecorder()
		traced, err := runParts(rec)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		traced.layers["trace.overhead_commit_p50_ms"] = traced.e2e["commit_p50_ms"] - plain.e2e["commit_p50_ms"]
		printOutcome(w, "traced", traced)
		printOverhead(w, plain, traced)
		printSelfTimes(w, rec)
		spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rec.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", spans)
		fmt.Fprintf(w, "model vs measured: Eq. 1 ledger (model) %.3f ms beside maintain.exec_ms (measured) %.3f ms\n",
			traced.layers["maintain.model_eq1_ms"], traced.layers["maintain.exec_ms"])
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{traced.layers[m.Name], m.Unit}
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		mismatches = append(mismatches, traced.mismatches...)
	}
	res.Correct = len(mismatches) == 0
	fmt.Fprintf(w, "oracle verdict: %s\n", map[bool]string{true: "all pass", false: "FAIL: " + strings.Join(mismatches, "; ")}[res.Correct])
	return res, nil
}

// stamp describes the build and host the result was measured on.
func stamp(cfg config) string {
	rev, dirty := "unknown (not built from a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return fmt.Sprintf("stamp: git %s%s, %s, GOMAXPROCS %d, nproc %d, workload %s, seed %d, seconds %d, trace %v, at %s",
		rev, dirty, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, time.Now().UTC().Format(time.RFC3339))
}

func printOutcome(w io.Writer, label string, o *outcome) {
	for _, n := range o.notes {
		fmt.Fprintf(w, "[%s] %s\n", label, n)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "[%s] %-16s %14.4f %s\n", label, m.Name, o.e2e[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "[%s] attempted %d, failed %d, fail_ratio %.4f\n", label, o.attempted, o.failed,
		float64(o.failed)/float64(max(1, o.attempted)))
}

func printOverhead(w io.Writer, plain, traced *outcome) {
	fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %+14.4f %s\n", m.Name, traced.e2e[m.Name]-plain.e2e[m.Name], m.Unit)
	}
}

func printSelfTimes(w io.Writer, rec *recorder) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "span self time (span minus the part its children cover):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %12.3f ms\n", n, float64(self[n])/float64(time.Millisecond))
	}
}
