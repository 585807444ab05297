package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gtpin/internal/detsim"
	"gtpin/internal/faults"
	"gtpin/internal/selection"
	"gtpin/internal/service"
	"gtpin/internal/simpoint"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("one sample: p90 = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: p50 = %v, want 0", got)
	}
}

// The quartiles must be exactly those of Python's
// statistics.quantiles(values, n=4), by which run spreads are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.9, 1.3, 1.1, 1.05, 0.97, 1.2, 1.01}, [3]float64{0.97, 1.05, 1.2}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must be refused")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentileSampleCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {200, 0.95}, {100, 0.9}, {60, 0.75}, {40, 0.75}, {39, 0}, {1, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestClosedLoopSampleCount(t *testing.T) {
	s := time.Second
	// The minimum is always met, even past the window.
	if !closedLoop([]time.Duration{s}, 30*s, 20*s, 2) {
		t.Error("stopped below the minimum operation count")
	}
	// Past the minimum, another op starts only if a typical one fits.
	if !closedLoop([]time.Duration{s, s}, 18*s, 20*s, 2) {
		t.Error("stopped although a typical operation fits the window")
	}
	if closedLoop([]time.Duration{s, 3 * s, 3 * s}, 18*s, 20*s, 2) {
		t.Error("started an operation that cannot end inside the window")
	}
	// A batch longer than the window runs once.
	if closedLoop([]time.Duration{25 * s}, 25*s, 20*s, 1) {
		t.Error("repeated a batch longer than the window")
	}
}

// The subsets batch count depends on the window alone, never on how
// fast batches ran, so runs of one seed attempt the same snippets.
func TestSubsetsBatchCount(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		window time.Duration
		traced bool
		want   int
	}{
		{40 * s, false, 4}, {40 * s, true, 2}, {30 * s, true, 2},
		{45 * s, false, 5}, {2 * s, false, 1}, {2 * s, true, 1},
	} {
		if got := subsetsBatches(c.window, c.traced); got != c.want {
			t.Errorf("subsetsBatches(%v, %v) = %d, want %d", c.window, c.traced, got, c.want)
		}
	}
}

func TestTally(t *testing.T) {
	var tl tally
	tl.add(true, "unit")
	tl.add(false, "snippet: x")
	tl.add(false, "snippet: x")
	tl.add(true, "unit")
	if tl.attempted != 4 || tl.failed != 2 || tl.kinds["snippet: x"] != 2 || !near(tl.frac(), 0.5) {
		t.Errorf("tally = %+v, frac %v", tl, tl.frac())
	}
	var empty tally
	if empty.frac() != 0 {
		t.Error("an empty tally must have failed_frac 0")
	}
}

func diverged() error {
	return fmt.Errorf("replay: %w", faults.ErrSnippetDiverged)
}

// A diverged snippet replay is a counted failure, never dropped.
func TestSettleSnippetsCountsDivergence(t *testing.T) {
	b := &subsetsBatch{
		reps: []*detsim.Report{{}, nil, {}},
		errs: []error{nil, diverged(), nil},
	}
	var tl tally
	if err := settleSnippets(b, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 3 || tl.failed != 1 || tl.kinds["snippet: snippet replay diverged"] != 1 {
		t.Errorf("tally = %+v", tl)
	}
}

// Dropping a failed snippet's error — so the slot holds neither a report
// nor an error — must fail the accounting check.
func TestSettleSnippetsCatchesDroppedFailure(t *testing.T) {
	b := &subsetsBatch{
		reps: []*detsim.Report{{}, nil, {}},
		errs: []error{nil, nil, nil},
	}
	var tl tally
	if err := settleSnippets(b, &tl); !errors.Is(err, errCheck) {
		t.Fatalf("dropped failure: err = %v, want errCheck", err)
	}
}

// The batch digest covers which snippets failed, so a batch that loses a
// failure differs from one that kept it.
func TestBatchDigestCatchesDroppedFailure(t *testing.T) {
	mk := func(err error) *subsetsBatch {
		return &subsetsBatch{reps: []*detsim.Report{{DetailedInstrs: 7}, nil}, errs: []error{nil, err}}
	}
	d1, err1 := mk(diverged()).digest()
	d2, err2 := mk(nil).digest()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if d1 == d2 {
		t.Error("digest unchanged when a failed snippet is dropped")
	}
}

// A single flipped byte in one unit's artifact fails the sweep's
// untraced-against-traced check.
func TestSameArtifactsCatchesFlippedByte(t *testing.T) {
	want := [][]byte{[]byte(`{"app":"a"}`), []byte(`{"app":"b"}`)}
	got := [][]byte{append([]byte(nil), want[0]...), append([]byte(nil), want[1]...)}
	if err := sameArtifacts(want, got); err != nil {
		t.Fatalf("identical artifacts: %v", err)
	}
	got[1][3] ^= 1
	if err := sameArtifacts(want, got); err == nil || !strings.Contains(err.Error(), "unit 1") {
		t.Errorf("flipped byte: err = %v, want a unit 1 mismatch", err)
	}
	if err := sameArtifacts(want, got[:1]); err == nil {
		t.Error("a missing artifact passed")
	}
}

// The traced selection must reproduce selection.Evaluate field for field.
func TestSameEvaluationsCatchesChangedSelection(t *testing.T) {
	mk := func() [][]*selection.Evaluation {
		return [][]*selection.Evaluation{{{
			App: "a", NumIntervals: 3, ErrorPct: 0.5, Speedup: 3,
			Selections: []simpoint.Selection{{Interval: 1, Ratio: 1}},
		}}}
	}
	want, got := mk(), mk()
	if err := sameEvaluations(want, got); err != nil {
		t.Fatalf("equal evaluations: %v", err)
	}
	got[0][0].Selections[0].Interval = 2
	if err := sameEvaluations(want, got); err == nil {
		t.Error("a changed representative interval passed")
	}
	got = mk()
	got[0][0].ErrorPct += 1e-12
	if err := sameEvaluations(want, got); err == nil {
		t.Error("a changed error passed")
	}
}

// Latency runs from a job's due time, not from when it was submitted: a
// late submission must not hide the lateness.
func TestDueTimeLatency(t *testing.T) {
	due := time.Unix(1000, 0)
	j := &jobTrack{due: due, submitted: due.Add(500 * time.Millisecond), code: http.StatusCreated,
		finished: due.Add(700 * time.Millisecond), state: service.StateDone}
	if got := j.latency(); !near(got, 0.7) {
		t.Errorf("latency = %v, want 0.7 (from the due time)", got)
	}
}

func TestSettleJobsAndSLO(t *testing.T) {
	due := time.Unix(1000, 0)
	fin := func(d time.Duration, st service.State) *jobTrack {
		return &jobTrack{due: due, code: http.StatusCreated, finished: due.Add(d), state: st}
	}
	tracks := []*jobTrack{
		fin(200*time.Millisecond, service.StateDone),
		fin(2*time.Second, service.StateDone), // done but over the SLO
		fin(300*time.Millisecond, service.StatePartial),
		fin(300*time.Millisecond, service.StateFailed),
		{due: due, code: http.StatusCreated}, // never finished
		{due: due, code: http.StatusTooManyRequests},
	}
	var tl tally
	settleJobs(tracks, &tl)
	if tl.attempted != 6 || tl.failed != 4 {
		t.Errorf("tally = %+v, want 6 attempted, 4 failed", tl)
	}
	for _, k := range []string{"job partial", "job failed", "job unfinished", "job shed (HTTP 429)"} {
		if tl.kinds[k] != 1 {
			t.Errorf("failure kind %q counted %d times, want 1", k, tl.kinds[k])
		}
	}
	if got := sloMisses(tracks); got != 5 {
		t.Errorf("SLO misses = %d, want 5", got)
	}
	if got := latencies(tracks); len(got) != 4 {
		t.Errorf("latencies of %d jobs, want the 4 that finished", len(got))
	}
}

// A unit key whose artifact digest differs between two done jobs fails
// the service's result check.
func TestCheckResultsCatchesDigestMismatch(t *testing.T) {
	digest := map[string]string{"job-1": "aa", "job-2": "aa"}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/"), "/result")
		fmt.Fprintf(w, `{"units":[{"key":"app|t1","status":"completed","digest":%q}]}`, digest[id])
	}))
	defer srv.Close()
	d := &daemon{base: srv.URL, client: srv.Client()}
	job := func(id string) *jobTrack {
		return &jobTrack{id: id, code: http.StatusCreated, state: service.StateDone,
			plan: jobPlan{spec: service.JobSpec{Apps: []string{"app"}, Trials: 1}}}
	}
	tracks := []*jobTrack{job("job-1"), job("job-2")}
	if err := d.checkResults(tracks); err != nil {
		t.Fatalf("consistent results: %v", err)
	}
	digest["job-2"] = "bb"
	if err := d.checkResults(tracks); !errors.Is(err, errCheck) {
		t.Errorf("digest mismatch: err = %v, want errCheck", err)
	}
}

func TestPlanJobs(t *testing.T) {
	a, b := planJobs(7, 36*time.Second), planJobs(7, 36*time.Second)
	if len(a) != int(36*serviceRate) {
		t.Fatalf("%d jobs in 20 s at %g/s", len(a), serviceRate)
	}
	fleets := 0
	shapes := map[[2]int]int{}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatal("the same seed gave different schedules")
		}
		sp := a[i].spec
		if n := len(sp.Apps); n < 1 || n > 3 || sp.Trials < 1 || sp.Trials > 3 || sp.Scale != "small" {
			t.Errorf("job %d: %+v", i, sp)
		}
		shapes[[2]int{len(sp.Apps), sp.Trials}]++
		if sp.Fleet > 0 {
			fleets++
		}
		if want := time.Duration(float64(i) / serviceRate * float64(time.Second)); a[i].due != want {
			t.Errorf("job %d due %v, want %v", i, a[i].due, want)
		}
	}
	if fleets != len(a)/fleetEvery {
		t.Errorf("%d fleet jobs of %d, want 1 in %d", fleets, len(a), fleetEvery)
	}
	// Whole blocks of nine hold every shape equally often.
	for shape, n := range shapes {
		if n != len(a)/9 {
			t.Errorf("shape %v offered %d times in %d jobs, want %d", shape, n, len(a), len(a)/9)
		}
	}
	if fmt.Sprint(planJobs(8, 36*time.Second)) == fmt.Sprint(a) {
		t.Error("another seed gave the same schedule")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("outer", "a", 0)
	child := tr.begin("inner", "a", root)
	tr.end(child)
	tr.end(root)
	spans := tr.finish()
	// Pin the times so the arithmetic is exact.
	spans[0].Start, spans[0].End = 0, 100
	spans[1].Start, spans[1].End = 10, 40
	tr.spans = spans
	spans = tr.finish()
	lt := summarize(spans)
	if lt.self["outer"] != 70 || lt.total["outer"] != 100 || lt.self["inner"] != 30 || lt.count["inner"] != 1 {
		t.Errorf("self/total = %v / %v", lt.self, lt.total)
	}
	var nilTracer *tracer
	if h := nilTracer.begin("x", "", 0); h != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestJudgeBounds(t *testing.T) {
	m := BoundedMetric{Name: "op_p50_s", Better: "lower", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01}
	v, err := judge(m, steady, steady)
	if err != nil || !v.SpreadOK || !v.MedianOK || !v.Steady {
		t.Errorf("steady runs judged %+v, %v", v, err)
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 1.0, 0.9, 1.1}
	if v, _ := judge(m, noisy, nil); v.SpreadOK {
		t.Errorf("spread %.3f passed a 0.1 bound", v.Spread1)
	}
	slower := make([]float64, len(steady))
	for i, x := range steady {
		slower[i] = x * 1.2
	}
	if v, _ := judge(m, steady, slower); v.MedianOK {
		t.Error("a 20% slower median passed a 0.1 bound")
	}
	if v, _ := judge(BoundedMetric{Name: "x", Better: "higher", Bound: 0.1}, steady, slower); !v.MedianOK {
		t.Error("a higher value was judged worse for a higher-is-better metric")
	}
	// setup_s's spread is not judged; its median is.
	if v, _ := judge(BoundedMetric{Name: "setup_s", Better: "lower", Bound: 0.25}, noisy, noisy); !v.SpreadOK || !v.MedianOK {
		t.Errorf("setup_s judged on its spread: %+v", v)
	}
	if _, err := judge(m, []float64{1}, nil); err == nil {
		t.Error("one run was judged")
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	var b Benchmark
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		if os.IsNotExist(err) {
			t.Skip("no BENCHMARK.json beside the benchmark")
		}
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for _, w := range b.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// Every result line carries every metric of its kind, and an untraced
// one no zero.
func TestAssemble(t *testing.T) {
	o := &outcome{setup: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second},
		ops: []float64{1, 2, 3}, cpu: 6 * time.Second, figs: figures{"sweep_wall_s": 2}}
	o.tally.add(true, "")
	res := assemble(o, false, true)
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for name, m := range res.Metrics {
		if m.Value == 0 {
			t.Errorf("%s is 0", name)
		}
	}
	if res.Metrics["setup_s"].Value != 2 || res.Metrics["cpu_per_op_s"].Value != 2 {
		t.Errorf("setup_s %v, cpu_per_op_s %v, want 2 and 2", res.Metrics["setup_s"].Value, res.Metrics["cpu_per_op_s"].Value)
	}
	traced := assemble(o, true, true)
	if len(traced.Metrics) != len(perLayer) || traced.Metrics["sweep_wall_s"].Value != 2 {
		t.Errorf("traced result: %d metrics, sweep_wall_s %v", len(traced.Metrics), traced.Metrics["sweep_wall_s"].Value)
	}
}
