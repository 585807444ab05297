// Package sweep is the one description of a profiling sweep — which
// applications, at what scale, on which device configuration, for how
// many trials, under which fault model and ISA target — and the one way
// to execute it: in-process on the supervised pool or across a fleet of
// worker processes, journaled to a state directory or not. The cmd/
// harnesses bind a Spec to their flags (Bind) and gtpind builds one
// from each job's JSON, so every surface expands and runs a sweep the
// same way.
package sweep

import (
	"context"
	"fmt"
	"time"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/fleet"
	"gtpin/internal/workloads"
	"gtpin/internal/xlate"
)

// Spec describes one sweep: the units it expands to and how they run.
type Spec struct {
	// Apps lists the applications in sweep order; nil is the whole
	// roster.
	Apps   []*workloads.Spec
	Scale  workloads.Scale
	Config device.Config
	// Trials is the number of trial seeds per application (1..Trials);
	// 0 means 1.
	Trials int
	Faults *workloads.FaultOptions
	Target xlate.Target

	// Workers bounds the in-process pool's shards (0 = GOMAXPROCS).
	Workers int
	// Fleet distributes the units across this many worker processes
	// (internal/fleet) instead of the in-process pool; 0 runs in process.
	Fleet int
	// StateDir journals units and persists their artifacts; Resume
	// continues the run journaled there.
	StateDir string
	Resume   bool
	// Timeout is the overall deadline (0 = none).
	Timeout time.Duration
}

// ParseScale maps a scale name (full, small, tiny) to its preset.
func ParseScale(s string) (workloads.Scale, error) {
	switch s {
	case "full":
		return workloads.ScaleFull, nil
	case "small":
		return workloads.ScaleSmall, nil
	case "tiny":
		return workloads.ScaleTiny, nil
	}
	return workloads.Scale{}, fmt.Errorf("unknown scale %q (want full, small, or tiny)", s)
}

// ParseConfig maps a device configuration name (hd4000, hd4600) to its
// preset.
func ParseConfig(s string) (device.Config, error) {
	switch s {
	case "hd4000":
		return device.IvyBridgeHD4000(), nil
	case "hd4600":
		return device.HaswellHD4600(), nil
	}
	return device.Config{}, fmt.Errorf("unknown config %q (want hd4000 or hd4600)", s)
}

// ParseApps resolves application names against the roster, keeping
// their order; an empty list selects the whole roster (nil).
func ParseApps(names []string) ([]*workloads.Spec, error) {
	var specs []*workloads.Spec
	for _, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// FaultOptions builds the chaos-mode fault model for a uniform fault
// rate, seed and watchdog budget; nil when the sweep runs clean.
func FaultOptions(rate float64, seed int64, watchdog uint64) *workloads.FaultOptions {
	if rate == 0 && watchdog == 0 {
		return nil
	}
	return &workloads.FaultOptions{Rates: faults.Uniform(rate), Seed: seed, Watchdog: watchdog}
}

// Units expands the spec into its work list: every application in
// order for trial 1, then again for trial 2, and so on. The order is
// canonical, which is what makes reports and result files
// deterministic.
func (s *Spec) Units() []workloads.Unit {
	apps := s.Apps
	if apps == nil {
		apps = workloads.All()
	}
	trials := max(s.Trials, 1)
	units := make([]workloads.Unit, 0, len(apps)*trials)
	for trial := 1; trial <= trials; trial++ {
		for _, app := range apps {
			units = append(units, workloads.Unit{
				Spec: app, Scale: s.Scale, Cfg: s.Config, TrialSeed: int64(trial),
				Faults: s.Faults, Target: s.Target,
			})
		}
	}
	return units
}

// Options configures Run: the pool options, plus the fleet topology
// that replaces the in-process pool when Fleet > 0.
type Options struct {
	workloads.PoolOptions
	// Fleet is the number of worker processes; 0 runs in process.
	Fleet int
	// FleetDir is the fleet scratch directory; "" uses a temporary one.
	FleetDir string
	// Logf receives fleet lifecycle lines; nil discards them.
	Logf func(format string, args ...any)
}

// Run executes units on the in-process supervised pool, or across
// opts.Fleet worker processes when it is positive. Either way the
// outcomes come back in unit order and byte-for-byte alike.
func Run(ctx context.Context, units []workloads.Unit, opts Options) ([]workloads.Outcome, error) {
	if opts.Fleet <= 0 {
		return workloads.RunPool(ctx, units, opts.PoolOptions)
	}
	return fleet.Run(ctx, units, fleet.Options{
		Dir:            opts.FleetDir,
		State:          opts.State,
		Resume:         opts.Resume,
		Workers:        opts.Fleet,
		MaxRestarts:    opts.MaxRestarts,
		UnitTimeout:    opts.UnitTimeout,
		SaveRecordings: opts.SaveRecordings,
		OnOutcome:      opts.OnOutcome,
		Logf:           opts.Logf,
	})
}
