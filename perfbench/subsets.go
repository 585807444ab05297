package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/par"
	"gtpin/internal/profile"
	"gtpin/internal/selection"
	"gtpin/internal/simpoint"
	"gtpin/internal/workloads"
)

// simWarmup is the cache-warming prefix, in invocations, before each
// simulated interval (cmd/subsets -sim-warmup).
const simWarmup = 2

// simpointSeed is the clustering seed cmd/subsets uses.
const simpointSeed = 42

// subsetsBatchSeconds is the nominal length of one subsets batch (10–18 s
// on 2 cores). A run measures a fixed number of batches, its window over
// this, rather than as many as fit: then every run of a seed attempts the
// same snippets and fails the same ones, however fast the host is.
const subsetsBatchSeconds = 10

// subsetsBatches is how many batches a run of the given window measures;
// a traced run measures half as many pairs of untraced and traced ones.
func subsetsBatches(window time.Duration, traced bool) int {
	n := max(1, int(math.Round(window.Seconds()/subsetsBatchSeconds)))
	if traced {
		n = (n + 1) / 2
	}
	return n
}

// subsetsInput is what set-up builds: every application's small-scale
// profile (timing jitter from the workload seed) and recording.
type subsetsInput struct {
	names    []string
	profiles []*profile.Profile
	recs     []*cofluent.Recording
}

func subsetsSetup(e *env) (*subsetsInput, error) {
	specs := workloads.All()
	cfg := device.IvyBridgeHD4000()
	units := make([]workloads.Unit, len(specs))
	in := &subsetsInput{}
	for i, spec := range specs {
		units[i] = workloads.Unit{Spec: spec, Scale: workloads.ScaleSmall, Cfg: cfg, TrialSeed: e.seed}
		in.names = append(in.names, spec.Name)
	}
	outs, err := workloads.RunPool(e.ctx, units, workloads.PoolOptions{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("profile %s: %w", specs[i].Name, o.Err)
		}
		p, err := o.Artifact.Profile()
		if err != nil {
			return nil, err
		}
		in.profiles = append(in.profiles, p)
	}
	in.recs, err = par.Map(e.ctx, len(specs), e.workers, func(i int) (*cofluent.Recording, error) {
		return workloads.Record(specs[i], workloads.ScaleSmall, cfg)
	})
	return in, err
}

// subsetsBatch is one pass of the subsets workload.
type subsetsBatch struct {
	selectWall, captureWall, replayWall time.Duration
	evals                               [][]*selection.Evaluation
	best                                []*selection.Evaluation
	reps                                []*detsim.Report // per snippet; nil where replay failed
	errs                                []error          // per snippet; nil where replay succeeded
	snippetApp                          []int
	replayBusy                          time.Duration
	points                              atomic.Int64 // intervals clustered by traced simpoint.Run calls
}

func (b *subsetsBatch) wall() time.Duration { return b.selectWall + b.captureWall + b.replayWall }

// runSubsets is the closed-loop subsets workload, a fixed number of
// batches (subsetsBatches). Each batch evaluates all 30 interval/feature
// configurations of every application (selection.EvaluateAll over
// par.ForEachN), then captures each application's min-error selection as
// snippets and replays them all in parallel. Traced runs follow each batch with one that calls
// intervals.Divide, features.ExtractAll and simpoint.Run under spans;
// its selections must equal selection.Evaluate's.
func runSubsets(e *env) (*outcome, error) {
	in, setup, err := measureSetup(func() (*subsetsInput, error) { return subsetsSetup(e) }, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, figs: figures{}}
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	var (
		ref                  string
		batches, traced      []*subsetsBatch
		tracedCtr            = counters{}
		checkErr             error
		selW, simW, mips     []float64
		errPct, speedup      []float64
		tracedW, untracedW   []float64
		replayBusy, replayWl time.Duration
	)
	for len(batches) < subsetsBatches(e.window, e.traced) {
		resetCaches()
		cpu0 := cpuTime()
		b, err := subsetsRun(e, in, nil)
		o.cpu += cpuTime() - cpu0
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
		e.logf("subsets batch %d: select %v, capture %v, replay %v", len(batches),
			b.selectWall.Round(time.Millisecond), b.captureWall.Round(time.Millisecond), b.replayWall.Round(time.Millisecond))
		o.ops = append(o.ops, b.wall().Seconds())
		untracedW = append(untracedW, b.wall().Seconds())
		if err := settleSnippets(b, &o.tally); err != nil && checkErr == nil {
			checkErr = err
		}
		for _, err := range b.errs {
			if err != nil {
				e.logf("%v", err)
			}
		}
		d, err := b.digest()
		if err != nil {
			return nil, err
		}
		if ref == "" {
			ref = d
		} else if d != ref && checkErr == nil {
			checkErr = fmt.Errorf("%w: subsets batch %d differs from batch 1", errCheck, len(batches))
		}
		selW = append(selW, b.selectWall.Seconds())
		simW = append(simW, (b.captureWall + b.replayWall).Seconds())
		mips = append(mips, b.detailedInstrs()/1e6/b.replayWall.Seconds())
		var errs, spds []float64
		for _, ev := range b.best {
			errs = append(errs, ev.ErrorPct)
			spds = append(spds, ev.Speedup)
		}
		errPct = append(errPct, mean(errs))
		speedup = append(speedup, geomean(spds))

		if e.traced {
			resetCaches()
			c0 := snapCounters()
			tb, err := subsetsRun(e, in, tr)
			tracedCtr.add(c0.delta(snapCounters()))
			if err != nil {
				return nil, err
			}
			traced = append(traced, tb)
			tracedW = append(tracedW, tb.wall().Seconds())
			replayBusy += tb.replayBusy
			replayWl += tb.replayWall
			if err := sameEvaluations(b.evals, tb.evals); err != nil && checkErr == nil {
				checkErr = fmt.Errorf("%w: traced selection differs from selection.Evaluate: %v", errCheck, err)
			}
		}
	}
	o.figs["failed_frac"] = o.tally.frac()
	o.figs["select_wall_s"] = median(selW)
	o.figs["simulate_wall_s"] = median(simW)
	o.figs["detsim_mips"] = median(mips)
	o.figs["subset_error_pct"] = median(errPct)
	o.figs["subset_speedup_x"] = median(speedup)
	if e.traced {
		o.spans = tr.finish()
		n := float64(len(traced))
		lt := summarize(o.spans)
		per := func(name string) float64 { return lt.self[name].Seconds() / n }
		o.figs["intervals.divide_busy_s"] = per("intervals.Divide")
		o.figs["features.extract_busy_s"] = per("features.ExtractAll")
		o.figs["simpoint.run_busy_s"] = per("simpoint.Run")
		o.figs["simpoint.runs"] = float64(lt.count["simpoint.Run"]) / n
		var points int64
		var snippets, failed int
		for _, tb := range traced {
			points += tb.points.Load()
			snippets += len(tb.errs)
			for _, err := range tb.errs {
				if err != nil {
					failed++
				}
			}
		}
		o.figs["simpoint.points"] = float64(points) / n
		o.figs["selection.app_busy_max_s"] = lt.max["selection.app"].Seconds()
		o.figs["detsim.capture_busy_s"] = per("detsim.Capture")
		o.figs["detsim.replay_busy_s"] = per("detsim.RunSnippet")
		o.figs["detsim.replay_parallel_eff"] = ratio(replayBusy.Seconds(), float64(e.workers)*replayWl.Seconds())
		o.figs["detsim.snippets"] = float64(snippets) / n
		o.figs["detsim.snippet_failed"] = float64(failed) / n
		o.figs["detsim.snippet_mib"] = float64(tracedCtr["detsim_snippet_bytes_total"]) / mib / n
		hits, misses := float64(tracedCtr["detsim_cache_hits_total"]), float64(tracedCtr["detsim_cache_misses_total"])
		o.figs["cachesim.accesses"] = (hits + misses) / n
		o.figs["cachesim.hit_ratio"] = ratio(hits, hits+misses)
		o.figs["engine.predecode_hit_ratio"] = tracedCtr.hitRatio("engine_predecode")
		o.figs["detsim.compile_cache_hit_ratio"] = tracedCtr.hitRatio("detsim_compile_cache")
		o.figs["bench.trace_overhead"] = median(tracedW) / median(untracedW)
	}
	return o, checkErr
}

// subsetsRun is one batch; with a tracer the selection step is split
// into its public parts and every call gets a span.
func subsetsRun(e *env, in *subsetsInput, tr *tracer) (*subsetsBatch, error) {
	b := &subsetsBatch{}
	n := len(in.names)
	opts := selection.Options{ApproxTarget: workloads.ApproxTarget(workloads.ScaleSmall), Seed: simpointSeed}

	t0 := time.Now()
	var err error
	b.evals, err = par.Map(e.ctx, n, e.workers, func(i int) ([]*selection.Evaluation, error) {
		if tr == nil {
			return selection.EvaluateAll(in.profiles[i], opts)
		}
		return tracedEvaluateAll(tr, in.profiles[i], opts, &b.points)
	})
	b.selectWall = time.Since(t0)
	if err != nil {
		return nil, err
	}

	// Capture every application's min-error selection as snippets.
	simCfg := detsim.DefaultConfig()
	simCfg.Device = device.IvyBridgeHD4000()
	b.best = make([]*selection.Evaluation, n)
	t0 = time.Now()
	snips, err := par.Map(e.ctx, n, e.workers, func(i int) ([]*detsim.Snippet, error) {
		best := selection.MinError(b.evals[i])
		b.best[i] = best
		selected := make([]int, len(best.Selections))
		for k, s := range best.Selections {
			selected[k] = s.Interval
		}
		windows, err := intervals.SelectedWindows(best.Intervals, selected, simWarmup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.names[i], err)
		}
		ranges := make([]detsim.Range, len(windows))
		for k, w := range windows {
			ranges[k] = detsim.Range{From: w.From, To: w.To, Warmup: w.Warmup}
		}
		sim, err := detsim.New(simCfg)
		if err != nil {
			return nil, err
		}
		h := tr.begin("detsim.Capture", in.names[i], 0)
		defer tr.end(h)
		return sim.Capture(in.recs[i], ranges)
	})
	b.captureWall = time.Since(t0)
	if err != nil {
		return nil, err
	}

	// Replay every snippet of every application on the worker pool. A
	// failed replay is an outcome to count, not a reason to stop.
	var flat []*detsim.Snippet
	for i, s := range snips {
		for range s {
			b.snippetApp = append(b.snippetApp, i)
		}
		flat = append(flat, s...)
	}
	b.reps = make([]*detsim.Report, len(flat))
	b.errs = make([]error, len(flat))
	var busy atomic.Int64
	t0 = time.Now()
	err = par.ForEachN(e.ctx, len(flat), e.workers, func(k int) error {
		sim, err := detsim.New(simCfg)
		if err != nil {
			return err
		}
		h := tr.begin("detsim.RunSnippet", fmt.Sprintf("%s#%d", in.names[b.snippetApp[k]], k), 0)
		s0 := time.Now()
		b.reps[k], b.errs[k] = sim.RunSnippet(flat[k])
		busy.Add(int64(time.Since(s0)))
		tr.end(h)
		return nil
	})
	b.replayWall = time.Since(t0)
	b.replayBusy = time.Duration(busy.Load())
	return b, err
}

// tracedEvaluateAll is selection.EvaluateAll rebuilt from the public
// parts of selection.Evaluate, with a span around each call.
func tracedEvaluateAll(tr *tracer, p *profile.Profile, opts selection.Options, points *atomic.Int64) ([]*selection.Evaluation, error) {
	root := tr.begin("selection.app", p.App, 0)
	defer tr.end(root)
	spCfg := simpoint.DefaultConfig(opts.Seed)
	var out []*selection.Evaluation
	for _, cfg := range selection.AllConfigs() {
		h := tr.begin("intervals.Divide", p.App, root)
		ivs, err := intervals.Divide(p, cfg.Scheme, opts.ApproxTarget)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		h = tr.begin("features.ExtractAll", p.App, root)
		vecs := features.ExtractAll(p, ivs, cfg.Feature)
		tr.end(h)
		weights := make([]float64, len(ivs))
		for i, iv := range ivs {
			weights[i] = float64(iv.Instrs)
		}
		h = tr.begin("simpoint.Run", p.App, root)
		res, err := simpoint.Run(vecs, weights, spCfg)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		points.Add(int64(len(vecs)))
		ev := &selection.Evaluation{App: p.App, Config: cfg, Intervals: ivs,
			Selections: res.Selections, NumIntervals: len(ivs)}
		measured := p.MeasuredSPI()
		ev.ErrorPct = math.Abs(measured-selection.ProjectSPI(ivs, res.Selections)) / measured * 100
		var sel uint64
		for _, s := range res.Selections {
			sel += ivs[s.Interval].Instrs
		}
		ev.SelectedFrac = float64(sel) / float64(p.TotalInstrs())
		if sel > 0 {
			ev.Speedup = float64(p.TotalInstrs()) / float64(sel)
		}
		out = append(out, ev)
	}
	return out, nil
}

// sameEvaluations reports the first evaluation that differs.
func sameEvaluations(want, got [][]*selection.Evaluation) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d applications, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("application %d: %d evaluations, want %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if !reflect.DeepEqual(want[i][k], got[i][k]) {
				return fmt.Errorf("%s %s differs", want[i][k].App, want[i][k].Config)
			}
		}
	}
	return nil
}

// settleSnippets counts every snippet replay as attempted, and each one
// that returned an error (a diverged digest included) as failed. A slot
// with neither a report nor an error — a dropped snippet — is an error.
func settleSnippets(b *subsetsBatch, t *tally) error {
	if len(b.reps) != len(b.errs) {
		return fmt.Errorf("%w: %d reports for %d snippets", errCheck, len(b.reps), len(b.errs))
	}
	for k := range b.errs {
		if (b.reps[k] == nil) == (b.errs[k] == nil) {
			return fmt.Errorf("%w: snippet %d has no single outcome", errCheck, k)
		}
		kind := "snippet"
		if b.errs[k] != nil {
			if fk := faults.Kind(b.errs[k]); fk != "" {
				kind = "snippet: " + fk
			}
		}
		t.add(b.errs[k] == nil, kind)
	}
	return nil
}

// detailedInstrs sums the instructions simulated in detail by the
// snippets that replayed.
func (b *subsetsBatch) detailedInstrs() float64 {
	var n uint64
	for _, r := range b.reps {
		if r != nil {
			n += r.DetailedInstrs
		}
	}
	return float64(n)
}

// digest fingerprints everything a batch computes — selections,
// reports, and which snippets failed — so repeated batches can be
// compared.
func (b *subsetsBatch) digest() (string, error) {
	errs := make([]string, len(b.errs))
	for i, err := range b.errs {
		if err != nil {
			errs[i] = err.Error()
		}
	}
	data, err := json.Marshal(struct {
		Evals [][]*selection.Evaluation
		Reps  []*detsim.Report
		Errs  []string
	}{b.evals, b.reps, errs})
	return fmt.Sprintf("%x", sha256.Sum256(data)), err
}
