// Repository-level benchmark harness: one benchmark per table and figure
// of the paper, each regenerating the experiment's data and reporting its
// headline metrics via b.ReportMetric. The cmd/ harnesses print the full
// row/series outputs; these benchmarks measure the cost of regenerating
// them and pin the headline numbers into benchmark output.
//
// Benchmarks run the workloads at tiny scale so `go test -bench=.`
// completes quickly; the cmd tools default to full scale.
package gtpin_test

import (
	"sync"
	"testing"

	"gtpin/internal/cachesim"
	"gtpin/internal/cl"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/isa"
	"gtpin/internal/selection"
	"gtpin/internal/simpoint"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
	"gtpin/internal/xlate"
)

var benchScale = workloads.ScaleTiny

// fixture profiles every benchmark once and shares the results across
// benchmarks.
type fixture struct {
	specs   []*workloads.Spec
	results map[string]*workloads.Result
	evals   map[string][]*selection.Evaluation
	opts    selection.Options
}

var (
	fxOnce sync.Once
	fx     *fixture
)

func getFixture(b testing.TB) *fixture {
	b.Helper()
	fxOnce.Do(func() {
		f := &fixture{
			specs:   workloads.All(),
			results: make(map[string]*workloads.Result),
			evals:   make(map[string][]*selection.Evaluation),
			opts:    selection.Options{ApproxTarget: workloads.ApproxTarget(benchScale), Seed: 42},
		}
		cfg := device.IvyBridgeHD4000()
		for _, spec := range f.specs {
			res, err := workloads.Run(spec, benchScale, cfg, 1)
			if err != nil {
				panic(err)
			}
			f.results[spec.Name] = res
			evs, err := selection.EvaluateAll(res.Profile, f.opts)
			if err != nil {
				panic(err)
			}
			f.evals[spec.Name] = evs
		}
		fx = f
	})
	return fx
}

// BenchmarkTableI regenerates the benchmark roster: building all 25
// applications from their specs.
func BenchmarkTableI(b *testing.B) {
	specs := workloads.All()
	if len(specs) != 25 {
		b.Fatalf("expected 25 benchmarks, got %d", len(specs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := spec.Build(benchScale); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3a regenerates the API-call breakdown: one full profiled
// run of an application per iteration, reporting the cross-suite average
// kernel/sync shares.
func BenchmarkFig3a(b *testing.B) {
	f := getFixture(b)
	var kp, sp []float64
	for _, spec := range f.specs {
		k, s, _ := f.results[spec.Name].Tracer.BreakdownPct()
		kp = append(kp, k)
		sp = append(sp, s)
	}
	cfg := device.IvyBridgeHD4000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := f.specs[i%len(f.specs)]
		if _, err := workloads.Run(spec, benchScale, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Mean(kp), "kernel-pct")
	b.ReportMetric(stats.Mean(sp), "sync-pct")
}

// BenchmarkFig3b regenerates the static program structures.
func BenchmarkFig3b(b *testing.B) {
	f := getFixture(b)
	var uk, ub []float64
	for _, spec := range f.specs {
		ks := f.results[spec.Name].GTPin.Kernels()
		blocks := 0
		for _, ki := range ks {
			blocks += ki.NumBlocks
		}
		uk = append(uk, float64(len(ks)))
		ub = append(ub, float64(blocks))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			_ = f.results[spec.Name].GTPin.Kernels()
		}
	}
	b.ReportMetric(stats.Mean(uk), "kernels-avg")
	b.ReportMetric(stats.Mean(ub), "blocks-avg")
}

// BenchmarkFig3c regenerates dynamic GPU work aggregation.
func BenchmarkFig3c(b *testing.B) {
	f := getFixture(b)
	var invs, instrs float64
	for _, spec := range f.specs {
		agg := f.results[spec.Name].Profile.Aggregate()
		invs += float64(agg.KernelInvocations)
		instrs += float64(agg.Instrs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			_ = f.results[spec.Name].Profile.Aggregate()
		}
	}
	b.ReportMetric(invs/25, "invocations-avg")
	b.ReportMetric(instrs/25, "instrs-avg")
}

// BenchmarkFig4a regenerates the instruction-mix percentages.
func BenchmarkFig4a(b *testing.B) {
	f := getFixture(b)
	var comp, ctrl, sends []float64
	for _, spec := range f.specs {
		agg := f.results[spec.Name].Profile.Aggregate()
		total := float64(agg.Instrs)
		comp = append(comp, stats.Pct(float64(agg.ByCategory[isa.CatComputation]), total))
		ctrl = append(ctrl, stats.Pct(float64(agg.ByCategory[isa.CatControl]), total))
		sends = append(sends, stats.Pct(float64(agg.ByCategory[isa.CatSend]), total))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			_ = f.results[spec.Name].Profile.Aggregate()
		}
	}
	b.ReportMetric(stats.Mean(comp), "computation-pct")
	b.ReportMetric(stats.Mean(ctrl), "control-pct")
	b.ReportMetric(stats.Mean(sends), "sends-pct")
}

// BenchmarkFig4b regenerates the SIMD-width distribution.
func BenchmarkFig4b(b *testing.B) {
	f := getFixture(b)
	var w16, w8, w1 []float64
	for _, spec := range f.specs {
		agg := f.results[spec.Name].Profile.Aggregate()
		total := float64(agg.Instrs)
		w16 = append(w16, stats.Pct(float64(agg.ByWidth[isa.WidthIndex(isa.W16)]), total))
		w8 = append(w8, stats.Pct(float64(agg.ByWidth[isa.WidthIndex(isa.W8)]), total))
		w1 = append(w1, stats.Pct(float64(agg.ByWidth[isa.WidthIndex(isa.W1)]), total))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			_ = f.results[spec.Name].Profile.Aggregate()
		}
	}
	b.ReportMetric(stats.Mean(w16), "w16-pct")
	b.ReportMetric(stats.Mean(w8), "w8-pct")
	b.ReportMetric(stats.Mean(w1), "w1-pct")
}

// BenchmarkFig4c regenerates the memory-activity totals.
func BenchmarkFig4c(b *testing.B) {
	f := getFixture(b)
	var rd, wr float64
	for _, spec := range f.specs {
		agg := f.results[spec.Name].Profile.Aggregate()
		rd += float64(agg.BytesRead)
		wr += float64(agg.BytesWritten)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			_ = f.results[spec.Name].Profile.Aggregate()
		}
	}
	b.ReportMetric(rd/25, "bytes-read-avg")
	b.ReportMetric(wr/25, "bytes-written-avg")
}

// BenchmarkTableII regenerates the interval space: all three divisions of
// every profile per iteration.
func BenchmarkTableII(b *testing.B) {
	f := getFixture(b)
	var counts [intervals.NumSchemes][]float64
	for _, spec := range f.specs {
		for si, s := range intervals.Schemes {
			ivs, err := intervals.Divide(f.results[spec.Name].Profile, s, f.opts.ApproxTarget)
			if err != nil {
				b.Fatal(err)
			}
			counts[si] = append(counts[si], float64(len(ivs)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			for _, s := range intervals.Schemes {
				if _, err := intervals.Divide(f.results[spec.Name].Profile, s, f.opts.ApproxTarget); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(stats.Mean(counts[0]), "sync-avg")
	b.ReportMetric(stats.Mean(counts[1]), "approx-avg")
	b.ReportMetric(stats.Mean(counts[2]), "kernel-avg")
}

// BenchmarkTableIII regenerates the feature space: extracting all ten
// feature-vector kinds over kernel intervals of one application.
func BenchmarkTableIII(b *testing.B) {
	f := getFixture(b)
	p := f.results["cb-physics-ocean-surf"].Profile
	ivs, err := intervals.Divide(p, intervals.Kernel, f.opts.ApproxTarget)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range features.Kinds {
			_ = features.ExtractAll(p, ivs, k)
		}
	}
}

// BenchmarkFig5 regenerates the 30-combination exploration for the three
// sample applications of Figure 5.
func BenchmarkFig5(b *testing.B) {
	f := getFixture(b)
	apps := []string{"cb-physics-ocean-surf", "sandra-crypt-aes128", "sonyvegas-proj-r3"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := apps[i%len(apps)]
		if _, err := selection.EvaluateAll(f.results[app].Profile, f.opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the per-application error-minimizing
// configuration study and reports its headline metrics.
func BenchmarkFig6(b *testing.B) {
	f := getFixture(b)
	var errs, spds []float64
	for _, spec := range f.specs {
		ev := selection.MinError(f.evals[spec.Name])
		errs = append(errs, ev.ErrorPct)
		spds = append(spds, ev.Speedup)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			_ = selection.MinError(f.evals[spec.Name])
		}
	}
	b.ReportMetric(stats.Mean(errs), "error-pct")
	b.ReportMetric(stats.Mean(spds), "speedup-x")
}

// BenchmarkFig7 regenerates the error-threshold co-optimization sweep.
func BenchmarkFig7(b *testing.B) {
	f := getFixture(b)
	thresholds := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var errAt10, spdAt10 []float64
	for _, spec := range f.specs {
		ev := selection.SmallestUnderThreshold(f.evals[spec.Name], 10)
		errAt10 = append(errAt10, ev.ErrorPct)
		spdAt10 = append(spdAt10, ev.Speedup)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range f.specs {
			for _, thr := range thresholds {
				_ = selection.SmallestUnderThreshold(f.evals[spec.Name], thr)
			}
		}
	}
	b.ReportMetric(stats.Mean(errAt10), "error-pct-at-10")
	b.ReportMetric(stats.Mean(spdAt10), "speedup-x-at-10")
}

func crossErrors(b *testing.B, f *fixture, cfg device.Config, seed int64) []float64 {
	b.Helper()
	var errs []float64
	for _, spec := range f.specs {
		res := f.results[spec.Name]
		best := selection.MinError(f.evals[spec.Name])
		times, err := workloads.TimedReplay(res.Recording, cfg, seed, xlate.Target{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := selection.CrossError(best, res.Profile, times)
		if err != nil {
			b.Fatal(err)
		}
		errs = append(errs, e)
	}
	return errs
}

// BenchmarkFig8Trials regenerates the cross-trial validation: trial-1
// selections evaluated on a re-timed trial per iteration.
func BenchmarkFig8Trials(b *testing.B) {
	f := getFixture(b)
	base := device.IvyBridgeHD4000()
	errs := crossErrors(b, f, base, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crossErrors(b, f, base, int64(2+i%9))
	}
	b.ReportMetric(stats.Mean(errs), "error-pct")
}

// BenchmarkFig8Freq regenerates the cross-frequency validation.
func BenchmarkFig8Freq(b *testing.B) {
	f := getFixture(b)
	freqs := []int{1000, 850, 700, 550, 350}
	errs := crossErrors(b, f, device.IvyBridgeHD4000().WithFrequency(350), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := device.IvyBridgeHD4000().WithFrequency(freqs[i%len(freqs)])
		crossErrors(b, f, cfg, 1)
	}
	b.ReportMetric(stats.Mean(errs), "error-pct-350MHz")
}

// BenchmarkFig8Arch regenerates the cross-architecture validation
// (Ivy Bridge selections predicting Haswell executions).
func BenchmarkFig8Arch(b *testing.B) {
	f := getFixture(b)
	hsw := device.HaswellHD4600()
	errs := crossErrors(b, f, hsw, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crossErrors(b, f, hsw, 1)
	}
	b.ReportMetric(stats.Mean(errs), "error-pct")
}

// BenchmarkOverheadGTPin measures the Section III-C instrumented-replay
// cost (one instrumented replay of a recorded application per iteration).
func BenchmarkOverheadGTPin(b *testing.B) {
	f := getFixture(b)
	rec := f.results["cb-physics-ocean-surf"].Recording
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.TimedReplay(rec, device.IvyBridgeHD4000(), 1, xlate.Target{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadDetailed measures full detailed simulation of a
// recorded application (the cost subset selection avoids).
func BenchmarkOverheadDetailed(b *testing.B) {
	f := getFixture(b)
	res := f.results["cb-physics-ocean-surf"]
	n := len(res.Tracer.Timings())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(res.Recording, []detsim.Range{{From: 0, To: n}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadSubsetSim measures detailed simulation of only the
// selected subset — the paper's end goal.
func BenchmarkOverheadSubsetSim(b *testing.B) {
	f := getFixture(b)
	res := f.results["cb-physics-ocean-surf"]
	best := selection.MinError(f.evals["cb-physics-ocean-surf"])
	var ranges []detsim.Range
	for _, s := range best.Selections {
		iv := best.Intervals[s.Interval]
		ranges = append(ranges, detsim.Range{From: iv.Start, To: iv.End})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(res.Recording, ranges); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(best.Speedup, "speedup-x")
}

// BenchmarkExtensionIntraKernel measures the intra-kernel sampling
// extension: detailed simulation of the whole program with only every
// N-th channel-group modelled at cycle level, reporting the timing
// distortion versus the full detailed run.
func BenchmarkExtensionIntraKernel(b *testing.B) {
	f := getFixture(b)
	res := f.results["cb-physics-part-sim-64k"]
	n := len(res.Tracer.Timings())
	full, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fullRep, err := full.Run(res.Recording, []detsim.Range{{From: 0, To: n}})
	if err != nil {
		b.Fatal(err)
	}
	for _, every := range []int{1, 4, 16} {
		every := every
		b.Run("sample="+itoa(every), func(b *testing.B) {
			var lastErr float64
			for i := 0; i < b.N; i++ {
				sim, err := detsim.New(detsim.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sim.Run(res.Recording, []detsim.Range{{From: 0, To: n, SampleGroups: every}})
				if err != nil {
					b.Fatal(err)
				}
				d := rep.DetailedTimeNs - fullRep.DetailedTimeNs
				if d < 0 {
					d = -d
				}
				lastErr = 100 * d / fullRep.DetailedTimeNs
			}
			b.ReportMetric(lastErr, "time-distortion-pct")
		})
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationSimPointDims sweeps the random-projection dimension.
func BenchmarkAblationSimPointDims(b *testing.B) {
	f := getFixture(b)
	p := f.results["cb-physics-ocean-surf"].Profile
	ivs, err := intervals.Divide(p, intervals.Kernel, f.opts.ApproxTarget)
	if err != nil {
		b.Fatal(err)
	}
	vecs := features.ExtractAll(p, ivs, features.BB)
	weights := make([]float64, len(ivs))
	for i, iv := range ivs {
		weights[i] = float64(iv.Instrs)
	}
	for _, dims := range []int{5, 15, 40} {
		cfg := simpoint.DefaultConfig(42)
		cfg.Dims = dims
		b.Run("dims="+itoa(dims), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := simpoint.Run(vecs, weights, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaxK sweeps the cluster budget (selection count).
func BenchmarkAblationMaxK(b *testing.B) {
	f := getFixture(b)
	p := f.results["sonyvegas-proj-r3"].Profile
	for _, maxK := range []int{5, 10, 20} {
		opts := f.opts
		opts.SimPoint = simpoint.DefaultConfig(42)
		opts.SimPoint.MaxK = maxK
		b.Run("maxK="+itoa(maxK), func(b *testing.B) {
			var errSum, spdSum float64
			for i := 0; i < b.N; i++ {
				ev, err := selection.Evaluate(p, selection.Config{Scheme: intervals.Sync, Feature: features.BB}, opts)
				if err != nil {
					b.Fatal(err)
				}
				errSum += ev.ErrorPct
				spdSum += ev.Speedup
			}
			b.ReportMetric(errSum/float64(b.N), "error-pct")
			b.ReportMetric(spdSum/float64(b.N), "speedup-x")
		})
	}
}

// BenchmarkAblationWeighting contrasts instruction-count-weighted BB
// vectors (the paper's Section V-B choice) against raw execution counts:
// same clustering pipeline, different vector values. Reports both errors.
func BenchmarkAblationWeighting(b *testing.B) {
	f := getFixture(b)
	p := f.results["cb-vision-facedetect"].Profile // heterogeneous block sizes
	ivs, err := intervals.Divide(p, intervals.Kernel, f.opts.ApproxTarget)
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, len(ivs))
	for i, iv := range ivs {
		weights[i] = float64(iv.Instrs)
	}
	evalWith := func(vecs []features.Vector) float64 {
		res, err := simpoint.Run(vecs, weights, simpoint.DefaultConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		measured := p.MeasuredSPI()
		projected := selection.ProjectSPI(ivs, res.Selections)
		d := measured - projected
		if d < 0 {
			d = -d
		}
		return 100 * d / measured
	}
	weighted := features.ExtractAll(p, ivs, features.BB)
	raw := make([]features.Vector, len(ivs))
	for i, iv := range ivs {
		raw[i] = features.ExtractRawBB(p, iv)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalWith(weighted)
	}
	b.ReportMetric(evalWith(weighted), "weighted-error-pct")
	b.ReportMetric(evalWith(raw), "raw-error-pct")
}

// BenchmarkAblationDrift contrasts selection error with the device's
// performance drift enabled (the default, modelling thermal/contention
// variation) and disabled — demonstrating where the methodology's
// residual error comes from.
func BenchmarkAblationDrift(b *testing.B) {
	spec := mustSpec(b, "cb-physics-ocean-surf")
	run := func(cfg device.Config) float64 {
		res, err := workloads.Run(spec, benchScale, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := selection.Evaluate(res.Profile,
			selection.Config{Scheme: intervals.Sync, Feature: features.BB},
			selection.Options{ApproxTarget: workloads.ApproxTarget(benchScale), Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		return ev.ErrorPct
	}
	withDrift := device.IvyBridgeHD4000()
	noDrift := device.IvyBridgeHD4000()
	noDrift.ThermalAmp, noDrift.ContentionAmp = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(withDrift)
	}
	b.ReportMetric(run(withDrift), "drift-error-pct")
	b.ReportMetric(run(noDrift), "nodrift-error-pct")
}

// BenchmarkDeviceExec measures raw functional-execution throughput.
func BenchmarkDeviceExec(b *testing.B) {
	app, err := mustSpec(b, "sandra-crypt-aes128").Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			b.Fatal(err)
		}
		ctx := cl.NewContext(dev)
		if err := app.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSim measures the trace-driven cache simulator.
func BenchmarkCacheSim(b *testing.B) {
	h, err := cachesim.NewHierarchy(180, cachesim.HD4000L3(), cachesim.HD4000LLC())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 97 % (16 << 20)
		h.Access(addr, i%3 == 0)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func mustSpec(b *testing.B, name string) *workloads.Spec {
	b.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
