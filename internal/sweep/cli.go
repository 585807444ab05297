package sweep

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gtpin/internal/device"
	"gtpin/internal/obs/obsflag"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
	"gtpin/internal/xlate"
)

// FlagSet selects the sweep flags a command binds beyond -scale and the
// observability flags, which every sweep command has.
type FlagSet uint

// The flag groups.
const (
	AppFlag     FlagSet = 1 << iota // -app
	FaultFlags                      // -fault-rate, -fault-seed, -watchdog
	TargetFlags                     // -dialect, -translate
	WorkerFlag                      // -workers
	StateFlags                      // -state-dir, -resume, -fleet
	TimeoutFlag                     // -timeout
)

// Flags is a command's sweep flag surface, parsed into a Spec by Start.
type Flags struct {
	scale, app, dialect, translate string
	faultRate                      float64
	faultSeed                      int64
	watchdog                       uint64
	workers, fleet                 int
	stateDir                       string
	resume                         bool
	timeout                        time.Duration
	obs                            *obsflag.Flags
}

// Bind registers -scale (with the command's default), the flag groups
// in set, and the observability flags on fs. Call before fs.Parse.
func Bind(fs *flag.FlagSet, defaultScale string, set FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.scale, "scale", defaultScale, "workload scale: full, small, or tiny")
	if set&AppFlag != 0 {
		fs.StringVar(&f.app, "app", "", "profile a single benchmark by name")
	}
	if set&FaultFlags != 0 {
		fs.Float64Var(&f.faultRate, "fault-rate", 0, "chaos mode: per-site fault-injection rate in [0,1]")
		fs.Int64Var(&f.faultSeed, "fault-seed", 1, "chaos mode: fault-injection seed")
		fs.Uint64Var(&f.watchdog, "watchdog", 0, "per-enqueue kernel watchdog budget in instructions (0 = off)")
	}
	if set&TargetFlags != 0 {
		fs.StringVar(&f.dialect, "dialect", "",
			"retarget every program's IR to this ISA dialect before compilation (gen or genx)")
		fs.StringVar(&f.translate, "translate", "",
			"binary-translate every compiled kernel to this ISA dialect before instrumentation (gen or genx)")
	}
	if set&WorkerFlag != 0 {
		fs.IntVar(&f.workers, "workers", 0, "concurrent shards (0 = GOMAXPROCS, 1 = serial); reports are identical at any setting")
	}
	if set&StateFlags != 0 {
		fs.StringVar(&f.stateDir, "state-dir", "", "checkpoint directory: journal each unit and persist its artifacts atomically")
		fs.BoolVar(&f.resume, "resume", false, "continue a journaled run from -state-dir: skip completed units, re-run in-flight ones")
		fs.IntVar(&f.fleet, "fleet", 0, "distribute the sweep across N worker processes with lease-based fault tolerance (0 = in-process pool); reports are identical either way")
	}
	if set&TimeoutFlag != 0 {
		fs.DurationVar(&f.timeout, "timeout", 0, "overall run deadline (0 = none); units still running at the deadline are abandoned and classified as unit-timeout faults")
	}
	f.obs = obsflag.Register(fs)
	return f
}

// Spec parses the bound flags into the sweep they describe, on the
// HD 4000 configuration with one trial.
func (f *Flags) Spec() (*Spec, error) {
	sc, err := ParseScale(f.scale)
	if err != nil {
		return nil, err
	}
	if f.faultRate < 0 || f.faultRate > 1 {
		return nil, fmt.Errorf("-fault-rate %v outside [0,1]", f.faultRate)
	}
	target, err := xlate.ParseTarget(f.dialect, f.translate)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Scale: sc, Config: device.IvyBridgeHD4000(), Trials: 1,
		Faults: FaultOptions(f.faultRate, f.faultSeed, f.watchdog), Target: target,
		Workers: f.workers, Fleet: f.fleet, StateDir: f.stateDir, Resume: f.resume, Timeout: f.timeout,
	}
	if f.app != "" {
		if s.Apps, err = ParseApps([]string{f.app}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Session is one command's run of a sweep: its spec, the opened state
// directory (nil when unjournaled), and the observability session.
type Session struct {
	*Spec
	State *runstate.Dir
	cmd   string
	obs   *obsflag.Session
	stop  context.CancelFunc
}

// Start parses the flags and brings the run up for command cmd: it
// applies the timeout to ctx, opens (or resumes) the state directory,
// and starts observability, defaulting the metrics artifact to
// <state-dir>/metrics.json. The returned context carries the deadline.
func (f *Flags) Start(ctx context.Context, cmd string) (context.Context, *Session, error) {
	spec, err := f.Spec()
	if err != nil {
		return nil, nil, err
	}
	state, err := openState(spec.StateDir, spec.Resume, cmd)
	if err != nil {
		return nil, nil, err
	}
	obsSess, err := obsflag.Start(f.obs)
	if err != nil {
		if state != nil {
			state.Close()
		}
		return nil, nil, err
	}
	if spec.StateDir != "" {
		obsSess.SetDefaultMetricsPath(filepath.Join(spec.StateDir, "metrics.json"))
	}
	stop := func() {}
	if spec.Timeout > 0 {
		ctx, stop = context.WithTimeout(ctx, spec.Timeout)
	}
	return ctx, &Session{Spec: spec, State: state, cmd: cmd, obs: obsSess, stop: stop}, nil
}

// openState enforces the -state-dir/-resume contract — -resume requires
// -state-dir, and a fresh run refuses to silently ignore a directory
// that already holds a journaled run — and, on resume, summarizes the
// recovered journal on stderr. An empty dir returns (nil, nil): the run
// is unjournaled.
func openState(dir string, resume bool, cmd string) (*runstate.Dir, error) {
	if dir == "" {
		if resume {
			return nil, fmt.Errorf("-resume requires -state-dir")
		}
		return nil, nil
	}
	state, err := runstate.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	rec := state.Recovered
	if !resume && len(rec.Records) > 0 {
		state.Close()
		return nil, fmt.Errorf("state dir %s already holds a journaled run (%d records); pass -resume to continue it or use a fresh directory", dir, len(rec.Records))
	}
	if resume {
		fmt.Fprintf(os.Stderr, "%s: recovered journal: %d completed, %d failed, %d in-flight unit(s)",
			cmd, len(rec.Completed()), len(rec.Failed()), len(rec.InFlight()))
		if rec.Torn {
			fmt.Fprint(os.Stderr, "; torn tail truncated")
		}
		if n := len(rec.Dropped); n > 0 {
			fmt.Fprintf(os.Stderr, "; %d damaged record(s) dropped", n)
		}
		fmt.Fprintln(os.Stderr)
	}
	return state, nil
}

// Progress reports one settled unit on stderr.
func Progress(o workloads.Outcome) {
	switch {
	case o.Err != nil:
		fmt.Fprintf(os.Stderr, "FAILED   %-28s %v\n", o.Unit.Spec.Name, o.Err)
	case o.Resumed:
		fmt.Fprintf(os.Stderr, "resumed  %-28s\n", o.Unit.Spec.Name)
	default:
		fmt.Fprintf(os.Stderr, "profiled %-28s\n", o.Unit.Spec.Name)
	}
}

// Finish exports the observability artifacts, closes the state
// directory and releases the deadline. A failure is reported through
// *errp unless it already holds an error — call it deferred from the
// command's run function.
func (s *Session) Finish(errp *error) {
	err := s.obs.Close()
	if s.State != nil {
		s.State.Close()
	}
	s.stop()
	if err != nil && *errp == nil {
		*errp = err
	}
}

// Run executes the spec's units, journaled to the session's state
// directory and on the fleet when -fleet asked for one (its scratch
// directory under <state-dir>/fleet). opts supplies the per-call pool
// options such as OnOutcome; the session fills in the rest. When the
// run is interrupted, stderr says where its progress is journaled.
func (s *Session) Run(ctx context.Context, opts workloads.PoolOptions) ([]workloads.Outcome, error) {
	opts.State, opts.Resume, opts.Workers = s.State, s.Resume, s.Workers
	o := Options{PoolOptions: opts, Fleet: s.Fleet, Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}}
	if s.StateDir != "" {
		o.FleetDir = filepath.Join(s.StateDir, "fleet")
	}
	outs, err := Run(ctx, s.Units(), o)
	if err != nil && s.State != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted; progress journaled in %s — continue with -resume\n", s.cmd, s.StateDir)
	}
	return outs, err
}
