package workloads

import (
	"fmt"
	"time"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/gtpin"
	"gtpin/internal/obs"
	"gtpin/internal/profile"
	"gtpin/internal/xlate"
)

// JitterSigma is the relative timing noise applied to timed runs,
// standing in for run-to-run variation on real hardware.
const JitterSigma = 0.02

// Result bundles everything one application's profiling pipeline
// produces: the CoFluent recording and timings of the native (plain) run,
// and the GT-Pin profile from the instrumented replay.
type Result struct {
	App       *App
	Recording *cofluent.Recording
	Tracer    *cofluent.Tracer // from the uninstrumented timed run
	GTPin     *gtpin.GTPin
	Profile   *profile.Profile

	// FaultStats counts the faults injected across both pipeline phases
	// when the run was configured with FaultOptions; all survived faults
	// were absorbed by retry or degradation (a surfaced fault fails the
	// run instead).
	FaultStats faults.Stats
}

// FaultOptions enables chaos-mode profiling: deterministic fault
// injection at the given rates, an optional per-enqueue watchdog budget,
// and an optional resilience-policy override. Each pipeline phase
// (native run, instrumented replay) draws from its own injector, seeded
// from Seed and the application name, so parallel sweeps stay
// reproducible.
type FaultOptions struct {
	Rates faults.Rates
	Seed  int64
	// Watchdog is the per-enqueue instruction budget (0 = disabled),
	// metered by the shared engine accounting — the same budget trips at
	// the same dynamic instruction under detsim (see docs/architecture.md).
	Watchdog uint64
	// Resilience overrides the context policy; nil keeps
	// cl.DefaultResilience().
	Resilience *cl.Resilience
}

// arm configures one phase's device (and, via the returned function, its
// cl context) for fault injection.
func (fo *FaultOptions) arm(dev *device.Device, app, phase string) (*faults.Injector, error) {
	if fo == nil {
		return nil, nil
	}
	var inj *faults.Injector
	if !fo.Rates.Zero() {
		var err error
		inj, err = faults.NewInjector(faults.DeriveSeed(fo.Seed, app+"/"+phase), fo.Rates)
		if err != nil {
			return nil, err
		}
		dev.SetFaultInjector(inj)
	}
	dev.SetWatchdog(fo.Watchdog)
	return inj, nil
}

func (fo *FaultOptions) apply(ctx *cl.Context) {
	if fo != nil && fo.Resilience != nil {
		ctx.SetResilience(*fo.Resilience)
	}
}

// Arm configures a caller-owned device for fault injection under this
// fault model — how harnesses that drive the pipeline phases manually
// (cmd/overhead) get the same flags as the packaged pipeline. A nil
// receiver arms nothing and returns a nil injector.
func (fo *FaultOptions) Arm(dev *device.Device, app, phase string) (*faults.Injector, error) {
	return fo.arm(dev, app, phase)
}

// Apply applies the fault model's resilience-policy override to a
// caller-owned context; nil receivers and nil overrides keep the
// context's default policy.
func (fo *FaultOptions) Apply(ctx *cl.Context) { fo.apply(ctx) }

// Run executes the paper's profiling pipeline for one benchmark:
//
//  1. Run the application natively with the CoFluent tracer attached,
//     producing the API-call record, per-kernel timings (with the trial's
//     timing jitter), and a replayable recording.
//  2. Replay the recording with GT-Pin attached, collecting
//     per-invocation dynamic profiles from the instrumented binaries.
//  3. Join GT-Pin's counts with CoFluent's (uninstrumented) timings into
//     a profile for the selection pipeline.
//
// trialSeed seeds the timing jitter; different seeds model different
// trials on the same machine.
func Run(spec *Spec, sc Scale, cfg device.Config, trialSeed int64) (*Result, error) {
	return RunWithFaults(spec, sc, cfg, trialSeed, nil)
}

// RunWithFaults is Run under a fault model: fo configures deterministic
// fault injection, the kernel watchdog, and the resilience policy for
// both pipeline phases. A nil fo is identical to Run.
func RunWithFaults(spec *Spec, sc Scale, cfg device.Config, trialSeed int64, fo *FaultOptions) (*Result, error) {
	return runPipeline(Unit{Spec: spec, Scale: sc, Cfg: cfg, TrialSeed: trialSeed, Faults: fo}, nil)
}

// runPipeline is the unit's pipeline with an optional replay cache:
// when rc is non-nil, the instrumented-replay phase is satisfied from
// the cache for every unit after the first that shares this (app,
// scale, device, fault model, ISA target) configuration — see
// ReplayCache for why that is exact. The unit's ISA target is applied
// to every cl context the pipeline creates.
func runPipeline(u Unit, rc *ReplayCache) (*Result, error) {
	spec, cfg, fo := u.Spec, u.Cfg, u.Faults
	tracer := obs.ActiveTracer()
	var phaseStart time.Time
	if tracer != nil {
		phaseStart = time.Now()
	}

	// Step 1: native timed run under CoFluent. jitter == nil records the
	// unjittered base times for the memoized path.
	var (
		app    *App
		rec    *cofluent.Recording
		tr     *cofluent.Tracer
		natInj *faults.Injector
	)
	if rc != nil && fo == nil {
		// Memoized native phase: trial seeds perturb only the reported
		// timings (workloads never read the device timestamp), so one
		// unjittered execution serves every trial and this trial's times
		// are synthesized from it — bit-identically to a live jittered
		// run, which TestPoolReplayCacheByteIdentical enforces. Fault
		// models stay on the live path: their retries consume jitter
		// draws the tracer never sees.
		e, err := rc.doNative(replayKey(u, nil), func() (*nativeEntry, error) {
			app, rec, base, _, err := u.record(nil, nil)
			if err != nil {
				return nil, err
			}
			return &nativeEntry{app: app, rec: rec, tracer: base}, nil
		})
		if err != nil {
			return nil, err
		}
		app, rec = e.app, e.rec
		tr = e.tracer.PerturbTimes(device.NewTimingJitter(u.TrialSeed, JitterSigma))
	} else {
		var err error
		app, rec, tr, natInj, err = u.record(device.NewTimingJitter(u.TrialSeed, JitterSigma), fo)
		if err != nil {
			return nil, err
		}
	}

	if tracer != nil {
		tracer.SpanWall("pipeline", "native "+spec.Name, "pipeline", phaseStart)
		phaseStart = time.Now()
	}

	// Step 2: instrumented replay under GT-Pin. The replay device never
	// gets the trial's timing jitter, so the phase is trial-independent
	// and memoizable.
	replay := func() (*gtpin.GTPin, faults.Stats, error) {
		idev, err := device.New(cfg)
		if err != nil {
			return nil, faults.Stats{}, fmt.Errorf("workloads: %s: %w", spec.Name, err)
		}
		repInj, err := fo.arm(idev, spec.Name, "replay")
		if err != nil {
			return nil, faults.Stats{}, fmt.Errorf("workloads: %s: %w", spec.Name, err)
		}
		var g *gtpin.GTPin
		if _, err := rec.Replay(idev, func(rctx *cl.Context) error {
			u.Target.Apply(rctx)
			fo.apply(rctx)
			var aerr error
			g, aerr = gtpin.Attach(rctx, gtpin.Options{})
			return aerr
		}); err != nil {
			return nil, faults.Stats{}, fmt.Errorf("workloads: instrumented replay of %s: %w", spec.Name, err)
		}
		return g, repInj.Stats(), nil
	}
	var (
		g   *gtpin.GTPin
		rst faults.Stats
		err error
	)
	if rc != nil {
		g, rst, err = rc.do(replayKey(u, fo), replay)
	} else {
		g, rst, err = replay()
	}
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		tracer.SpanWall("pipeline", "replay "+spec.Name, "pipeline", phaseStart)
	}

	// Step 3: join counts and timings.
	p, err := profile.Build(spec.Name, g, tr.TimesNs())
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", spec.Name, err)
	}
	st := natInj.Stats()
	st.Hangs += rst.Hangs
	st.SendFaults += rst.SendFaults
	st.JITFaults += rst.JITFaults
	st.Corruptions += rst.Corruptions
	return &Result{App: app, Recording: rec, Tracer: tr, GTPin: g, Profile: p, FaultStats: st}, nil
}

// record runs the application natively under CoFluent on the unit's
// device and ISA target, with the given timing jitter (nil runs
// unjittered) and fault model. The recording keeps the IR the driver
// actually compiled, so replays and detsim see the retargeted code.
func (u Unit) record(jitter *device.TimingJitter, fo *FaultOptions) (*App, *cofluent.Recording, *cofluent.Tracer, *faults.Injector, error) {
	name := u.Spec.Name
	app, err := u.Spec.Build(u.Scale)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("workloads: build %s: %w", name, err)
	}
	dev, err := device.New(u.Cfg)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	dev.SetJitter(jitter)
	inj, err := fo.arm(dev, name, "native")
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	ctx := cl.NewContext(dev)
	u.Target.Apply(ctx)
	fo.apply(ctx)
	tr := cofluent.Attach(ctx)
	if err := app.Run(ctx); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("workloads: run %s: %w", name, err)
	}
	rec, err := cofluent.Record(name, tr, ctx.ProgramIRs())
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("workloads: record %s: %w", name, err)
	}
	return app, rec, tr, inj, nil
}

// Record runs the unit's application natively once, without timing
// jitter or faults, and returns just its CoFluent recording — the
// replayable call stream detsim and snippet capture consume.
// Recordings are jitter-independent (jitter perturbs reported times,
// never the call stream), so one unjittered run yields the same
// recording any trial would.
func (u Unit) Record() (*cofluent.Recording, error) {
	_, rec, _, _, err := u.record(nil, nil)
	return rec, err
}

// Record is Unit.Record for a native-target unit.
func Record(spec *Spec, sc Scale, cfg device.Config) (*cofluent.Recording, error) {
	return Unit{Spec: spec, Scale: sc, Cfg: cfg}.Record()
}

// TimedReplay re-executes a recording without instrumentation on the
// given device configuration and ISA target and returns per-invocation
// times — a new trial (different seed), frequency, or architecture
// generation for the Section V-E validations.
func TimedReplay(rec *cofluent.Recording, cfg device.Config, trialSeed int64, target xlate.Target) ([]float64, error) {
	dev, err := device.New(cfg)
	if err != nil {
		return nil, err
	}
	dev.SetJitter(device.NewTimingJitter(trialSeed, JitterSigma))
	var setup func(*cl.Context) error
	if !target.IsZero() {
		setup = func(ctx *cl.Context) error { target.Apply(ctx); return nil }
	}
	tr, err := rec.Replay(dev, setup)
	if err != nil {
		return nil, err
	}
	return tr.TimesNs(), nil
}

// ApproxTarget returns the Approx-interval instruction target for a
// scale: the paper's 100M instructions scaled by the suite's 1e-4
// instruction factor (≈10K), scaled further by the test scale factors.
func ApproxTarget(sc Scale) uint64 {
	t := 10000 * sc.Iters * sc.Data
	if t < 500 {
		t = 500
	}
	return uint64(t)
}
