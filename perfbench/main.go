// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the module's public API — a characterization sweep
// (sweep), SimPoint selection plus snippet simulation (subsets), and an
// open-loop load on the gtpind service (service) — checks the outputs,
// and prints one JSON result line:
//
//	perfbench --workload sweep|subsets|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the run interleaves untraced operations with traced ones, which time
// each layer from outside (spans around public calls plus deltas of the
// obs counters), and the result holds the per-layer metrics. The spans
// are written under --out. `perfbench check` judges repeated results
// against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gtpin/internal/detsim"
	"gtpin/internal/fleet"
	"gtpin/internal/gtpin"
)

func main() {
	// Fleet jobs re-execute this binary as their worker processes.
	fleet.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 3

// env is what every workload receives.
type env struct {
	ctx     context.Context
	seed    int64
	window  time.Duration
	traced  bool
	workers int
	outDir  string
	log     io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// outcome is what a workload measured.
type outcome struct {
	setup []time.Duration
	ops   []float64     // seconds per operation
	cpu   time.Duration // CPU time of the measured operations
	tally tally
	figs  figures // headline figures, plus per-layer figures when traced
	spans []Span
}

// tally counts operations against failures, by failure kind.
type tally struct {
	attempted, failed int
	kinds             map[string]int
}

func (t *tally) add(ok bool, kind string) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if t.kinds == nil {
		t.kinds = map[string]int{}
	}
	t.kinds[kind]++
}

func (t *tally) frac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

type workloadFunc func(*env) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"sweep":   runSweep,
	"subsets": runSubsets,
	"service": runService,
}

// Metric and Result are the JSON result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// errCheck marks a failed correctness check: the run still prints its
// result, with correct=false, and exits non-zero.
var errCheck = errors.New("correctness check failed")

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, subsets, or service")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 20, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and service state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloadFuncs[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|subsets|service, --seconds > 0, --trace 0|1\n")
		return 2
	}
	e := &env{
		ctx:     context.Background(),
		seed:    *seed,
		window:  time.Duration(*secs * float64(time.Second)),
		traced:  *trace == 1,
		workers: runtime.GOMAXPROCS(0),
		outDir:  *out,
		log:     stderr,
	}
	o, err := wf(e)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
	}
	if e.traced {
		o.figs["bench.spans"] = float64(len(o.spans))
		path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, e.seed))
		if werr := writeSpans(path, o.spans); werr != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(o.spans), path)
	}
	res := assemble(o, e.traced, err == nil)
	printResult(stdout, *name, o, res)
	if err != nil {
		return 1
	}
	return 0
}

// assemble turns an outcome into the result line: end-to-end metrics
// untraced, per-layer metrics (zero for layers the workload never
// enters) traced.
func assemble(o *outcome, traced, correct bool) Result {
	res := Result{Correct: correct, Attempted: o.tally.attempted, Failed: o.tally.failed,
		Metrics: map[string]Metric{}}
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.Name] = Metric{Value: o.figs[d.Name], Unit: d.Unit}
		}
		return res
	}
	vals := figures{
		"setup_s":      median(seconds(o.setup)),
		"op_p50_s":     percentile(o.ops, 0.5),
		"cpu_per_op_s": o.cpu.Seconds() / float64(len(o.ops)),
		"peak_rss_mib": peakRSSMiB(),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// printResult writes a readable report — the workload's own headline
// figures by name, and the failures by kind — then the JSON line last.
func printResult(w io.Writer, name string, o *outcome, res Result) {
	fmt.Fprintf(w, "workload %s: %d operations, %d attempted, %d failed\n", name, len(o.ops), res.Attempted, res.Failed)
	fmt.Fprintf(w, "  operation time: n %d, p50 %.6g s", len(o.ops), median(o.ops))
	if q := tailPercentile(len(o.ops)); q > 0 {
		fmt.Fprintf(w, ", p%g %.6g s", 100*q, percentile(o.ops, q))
	}
	fmt.Fprintln(w)
	kinds := make([]string, 0, len(o.tally.kinds))
	for kind := range o.tally.kinds {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(w, "  failed %-28s %d\n", kind, o.tally.kinds[kind])
	}
	for _, d := range perLayer {
		if v, ok := o.figs[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	data, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", data)
}

// measureSetup runs set-up setupReps times from cold caches and keeps
// the last result; discard releases an earlier repetition's result.
func measureSetup[T any](f func() (T, error), discard func(T)) (T, []time.Duration, error) {
	var v T
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(v)
		}
		resetCaches()
		t0 := time.Now()
		var err error
		if v, err = f(); err != nil {
			return v, nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return v, ds, nil
}

// resetCaches empties the process-wide caches a CLI run starts without:
// the GT-Pin rewrite cache and the detsim compile cache. (Replay caches
// are per pool; the engine's predecode store cannot be reset.)
func resetCaches() {
	gtpin.SetDefaultRewriteCache(gtpin.NewRewriteCache())
	detsim.ResetCompileCache()
}
