package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/gtpin"
	"gtpin/internal/par"
	"gtpin/internal/profile"
	"gtpin/internal/workloads"
)

// sweepTrials is the number of trial seeds per application in one sweep
// batch: repeated trials are what the replay and rewrite caches serve.
const sweepTrials = 3

// sweepMinBatches is the fewest batches a sweep run measures.
const sweepMinBatches = 5

// sweepUnits lays out one batch: every application at small scale, once
// per trial, trial-major like cmd/characterize. The trial seeds come
// from the workload seed.
func sweepUnits(seed int64) []workloads.Unit {
	var units []workloads.Unit
	for t := int64(1); t <= sweepTrials; t++ {
		for _, spec := range workloads.All() {
			units = append(units, workloads.Unit{Spec: spec, Scale: workloads.ScaleSmall,
				Cfg: device.IvyBridgeHD4000(), TrialSeed: seed*sweepTrials + t})
		}
	}
	return units
}

// runSweep is the closed-loop characterization sweep: each batch profiles
// all units through workloads.RunPool from cold rewrite and replay
// caches. Traced runs alternate it with a batch that rebuilds the same
// artifacts from the pipeline's public parts under spans; both must
// produce the same bytes.
func runSweep(e *env) (*outcome, error) {
	units, setup, err := measureSetup(func() ([]workloads.Unit, error) {
		// Lay out the units, then run one warm-up batch outside the
		// measured window, so measured batches start in a warmed-up
		// process (caches are still reset before each of them).
		units := sweepUnits(e.seed)
		_, err := workloads.RunPool(e.ctx, units, workloads.PoolOptions{Workers: e.workers})
		return units, err
	}, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, figs: figures{}}
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	var (
		ref                [][]byte
		walls, tracedWalls []time.Duration
		iters              []time.Duration // one untraced batch, plus one traced when tracing
		untracedCtr        = counters{}
		tracedCtr          = counters{}
		allocBytes         uint64
		checkErr           error
	)
	start := time.Now()
	for closedLoop(iters, time.Since(start), e.window, sweepMinBatches) {
		it0 := time.Now()
		// An untraced batch: the program's own path.
		resetCaches()
		c0, cpu0 := snapCounters(), cpuTime()
		t0 := time.Now()
		outs, err := workloads.RunPool(e.ctx, units, workloads.PoolOptions{Workers: e.workers})
		wall := time.Since(t0)
		o.cpu += cpuTime() - cpu0
		untracedCtr.add(c0.delta(snapCounters()))
		if err != nil {
			return nil, err
		}
		arts := make([][]byte, len(outs))
		for i, out := range outs {
			o.tally.add(out.Err == nil, "unit")
			if out.Err != nil {
				e.logf("unit %s failed: %v", units[i].Key(), out.Err)
				continue
			}
			if arts[i], err = out.Artifact.Encode(); err != nil {
				return nil, err
			}
		}
		walls = append(walls, wall)
		e.logf("sweep batch %d: %v", len(walls), wall.Round(time.Millisecond))
		if ref == nil {
			ref = arts
		} else if err := sameArtifacts(ref, arts); err != nil && checkErr == nil {
			checkErr = fmt.Errorf("%w: sweep batch %d differs from batch 1: %v", errCheck, len(walls), err)
		}
		if !e.traced {
			iters = append(iters, time.Since(it0))
			continue
		}

		// A traced batch over the same units.
		resetCaches()
		c0 = snapCounters()
		t0 = time.Now()
		tarts, alloc, err := tracedSweep(e, tr, units)
		tracedWalls = append(tracedWalls, time.Since(t0))
		tracedCtr.add(c0.delta(snapCounters()))
		allocBytes += alloc
		if err != nil {
			return nil, err
		}
		if err := sameArtifacts(arts, tarts); err != nil && checkErr == nil {
			checkErr = fmt.Errorf("%w: traced sweep differs from untraced: %v", errCheck, err)
		}
		iters = append(iters, time.Since(it0))
	}
	o.ops = seconds(walls)
	o.figs["sweep_wall_s"] = median(o.ops)
	o.figs["failed_frac"] = o.tally.frac()
	if e.traced {
		o.spans = tr.finish()
		sweepLayers(o.figs, summarize(o.spans), untracedCtr, tracedCtr, len(walls), len(tracedWalls), allocBytes)
		o.figs["bench.trace_overhead"] = median(seconds(tracedWalls)) / median(o.ops)
	}
	return o, checkErr
}

// sweepLayers derives the sweep's per-layer figures, per batch: busy
// times from the traced batches' spans, cache ratios from the untraced
// batches (the traced path has no pool and so no replay cache), and
// work counts from the traced batches' obs counters.
func sweepLayers(f figures, lt layerTimes, untraced, traced counters, nUntraced, nTraced int, allocBytes uint64) {
	per := func(d time.Duration) float64 { return d.Seconds() / float64(nTraced) }
	native := lt.total["workloads.native"]
	replay := lt.self["gtpin.replay"]
	f["workloads.native_busy_s"] = per(native)
	f["gtpin.attach_busy_s"] = per(lt.total["gtpin.Attach"])
	f["gtpin.replay_busy_s"] = per(replay)
	f["profile.build_busy_s"] = per(lt.total["profile.Build"])
	f["gtpin.attach_alloc_mib"] = float64(allocBytes) / mib / float64(nTraced)
	f["engine.functional_mips"] = ratio(float64(traced["engine_instructions_total"])/1e6, (native + replay).Seconds())
	f["cl.api_calls"] = float64(traced["cl_api_calls_kernel_total"]+traced["cl_api_calls_sync_total"]+traced["cl_api_calls_other_total"]) / float64(nTraced)
	f["gtpin.rewrites"] = float64(untraced["gtpin_rewrites_total"]) / float64(nUntraced)
	f["jit.cache_hit_ratio"] = untraced.hitRatio("jit_cache")
	f["workloads.replay_cache_hit_ratio"] = untraced.hitRatio("workloads_replay_cache")
	f["workloads.native_cache_hit_ratio"] = untraced.hitRatio("workloads_native_cache")
}

// sameArtifacts reports the first unit whose encoded artifact differs.
func sameArtifacts(want, got [][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d artifacts, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("unit %d: artifact bytes differ", i)
		}
	}
	return nil
}

// tracedSweep rebuilds every unit's artifact from the pipeline's public
// parts, one span per call: the native run (the steps of
// workloads.Record, kept apart so its tracer's base times survive),
// Recording.Replay with gtpin.Attach, then per trial the jittered times
// and profile.Build. Like the pool's caches, the native run and the
// instrumented replay happen once per application. It returns the
// artifacts in unit order and the heap bytes allocated inside
// gtpin.Attach.
func tracedSweep(e *env, tr *tracer, units []workloads.Unit) ([][]byte, uint64, error) {
	type app struct {
		spec  *workloads.Spec
		units []int
	}
	var apps []*app
	byName := map[string]*app{}
	for i, u := range units {
		a := byName[u.Spec.Name]
		if a == nil {
			a = &app{spec: u.Spec}
			byName[u.Spec.Name] = a
			apps = append(apps, a)
		}
		a.units = append(a.units, i)
	}
	arts := make([][]byte, len(units))
	var attachMu sync.Mutex
	var alloc uint64
	err := par.ForEachN(e.ctx, len(apps), e.workers, func(i int) error {
		a := apps[i]
		name := a.spec.Name
		u0 := units[a.units[0]]
		root := tr.begin("sweep.app", name, 0)
		defer tr.end(root)

		h := tr.begin("workloads.native", name, root)
		base, rec, err := nativeRun(u0)
		tr.end(h)
		if err != nil {
			return err
		}

		idev, err := device.New(u0.Cfg)
		if err != nil {
			return err
		}
		var g *gtpin.GTPin
		h = tr.begin("gtpin.replay", name, root)
		_, err = rec.Replay(idev, func(rctx *cl.Context) error {
			// Attach calls are serialized so the allocation delta
			// around each is (mostly) its own.
			attachMu.Lock()
			defer attachMu.Unlock()
			a0 := heapAllocBytes()
			ah := tr.begin("gtpin.Attach", name, h)
			var aerr error
			g, aerr = gtpin.Attach(rctx, gtpin.Options{})
			tr.end(ah)
			alloc += heapAllocBytes() - a0
			return aerr
		})
		tr.end(h)
		if err != nil {
			return fmt.Errorf("instrumented replay of %s: %w", name, err)
		}

		for _, ui := range a.units {
			u := units[ui]
			h = tr.begin("cofluent.PerturbTimes", name, root)
			times := base.PerturbTimes(device.NewTimingJitter(u.TrialSeed, workloads.JitterSigma))
			tr.end(h)
			h = tr.begin("profile.Build", name, root)
			p, err := profile.Build(name, g, times.TimesNs())
			tr.end(h)
			if err != nil {
				return err
			}
			art := workloads.NewArtifact(&workloads.Result{Tracer: times, GTPin: g, Profile: p})
			if arts[ui], err = art.Encode(); err != nil {
				return err
			}
		}
		return nil
	})
	return arts, alloc, err
}

// nativeRun is workloads.Record's native run with its CoFluent tracer
// kept: build the application, run it on a fresh device without timing
// jitter, and record the call stream.
func nativeRun(u workloads.Unit) (*cofluent.Tracer, *cofluent.Recording, error) {
	app, err := u.Spec.Build(u.Scale)
	if err != nil {
		return nil, nil, err
	}
	dev, err := device.New(u.Cfg)
	if err != nil {
		return nil, nil, err
	}
	ctx := cl.NewContext(dev)
	ctr := cofluent.Attach(ctx)
	if err := app.Run(ctx); err != nil {
		return nil, nil, fmt.Errorf("run %s: %w", u.Spec.Name, err)
	}
	rec, err := cofluent.Record(u.Spec.Name, ctr, app.Programs)
	if err != nil {
		return nil, nil, err
	}
	return ctr, rec, nil
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
