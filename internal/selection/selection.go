// Package selection implements the paper's GPU simulation subset
// selection methodology (Section V): divide a profiled execution into
// intervals, characterize each interval with a feature vector, cluster
// with SimPoint, select one representative interval per cluster, and
// validate the selection by comparing projected whole-program
// seconds-per-instruction (SPI) against the measured SPI — Equation (1).
//
// The package also implements the paper's two meta-level optimizations:
// choosing the error-minimizing interval/feature configuration per
// application (Section V-C, Figure 6), and jointly optimizing error and
// selection size under an error threshold (Section V-D, Figure 7). One
// native profiling run provides the data for all 30 interval/feature
// combinations, so the searches need no further profiling. They are not
// free, though: each runs SimPoint 30 times per application, and in the
// repository benchmark that clustering costs about as much wall time as
// simulating the chosen subsets in detail (docs/performance.md).
package selection

import (
	"fmt"
	"math"

	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/profile"
	"gtpin/internal/simpoint"
)

// Config is one point in the interval/feature exploration space: a
// division scheme crossed with a feature-vector kind (3 × 10 = 30).
type Config struct {
	Scheme  intervals.Scheme
	Feature features.Kind
}

// String returns a short identifier like "Sync/BB-R".
func (c Config) String() string {
	var s string
	switch c.Scheme {
	case intervals.Sync:
		s = "Sync"
	case intervals.Approx:
		s = "100M"
	case intervals.Kernel:
		s = "Single"
	}
	return s + "/" + c.Feature.String()
}

// AllConfigs enumerates the full 30-combination space in Figure 5 order
// (interval scheme major, feature kind minor).
func AllConfigs() []Config {
	out := make([]Config, 0, intervals.NumSchemes*features.NumKinds)
	for _, s := range intervals.Schemes {
		for _, f := range features.Kinds {
			out = append(out, Config{Scheme: s, Feature: f})
		}
	}
	return out
}

// Options holds pipeline-wide parameters.
type Options struct {
	// ApproxTarget is the target instruction count per Approx interval —
	// the paper's "approximately 100M instructions", scaled to the
	// workload scale in use.
	ApproxTarget uint64
	// SimPoint configures clustering; zero value means
	// simpoint.DefaultConfig(Seed).
	SimPoint simpoint.Config
	// Seed drives clustering randomness when SimPoint is zero.
	Seed int64
}

func (o Options) simpointConfig() simpoint.Config {
	if o.SimPoint.MaxK == 0 {
		return simpoint.DefaultConfig(o.Seed)
	}
	return o.SimPoint
}

// Evaluation is the outcome of running the pipeline under one
// configuration: the selected intervals with their representation ratios,
// and the accuracy/size metrics of Figures 5-7.
type Evaluation struct {
	App    string
	Config Config

	Intervals    []intervals.Interval
	Selections   []simpoint.Selection
	NumIntervals int

	// ErrorPct is Equation (1): |measured SPI - projected SPI| /
	// measured SPI × 100.
	ErrorPct float64
	// SelectedFrac is the fraction of total dynamic instructions inside
	// the selected intervals (Figure 5, bottom).
	SelectedFrac float64
	// Speedup is the simulation speedup from simulating only the
	// selection: total instructions / selected instructions.
	Speedup float64
}

// ProjectSPI extrapolates whole-program SPI from selected intervals: the
// ratio-weighted sum of each selected interval's SPI (Section V-A,
// step 7).
func ProjectSPI(ivs []intervals.Interval, sels []simpoint.Selection) float64 {
	spi := 0.0
	for _, s := range sels {
		spi += s.Ratio * ivs[s.Interval].SPI()
	}
	return spi
}

// Evaluate runs the full pipeline for one configuration.
func Evaluate(p *profile.Profile, cfg Config, opts Options) (*Evaluation, error) {
	ivs, err := intervals.Divide(p, cfg.Scheme, opts.ApproxTarget)
	if err != nil {
		return nil, fmt.Errorf("selection: %s: %w", p.App, err)
	}
	vecs := features.ExtractAll(p, ivs, cfg.Feature)
	weights := make([]float64, len(ivs))
	for i, iv := range ivs {
		weights[i] = float64(iv.Instrs)
	}
	res, err := simpoint.Run(vecs, weights, opts.simpointConfig())
	if err != nil {
		return nil, fmt.Errorf("selection: %s %s: %w", p.App, cfg, err)
	}
	ev := &Evaluation{
		App:          p.App,
		Config:       cfg,
		Intervals:    ivs,
		Selections:   res.Selections,
		NumIntervals: len(ivs),
	}
	measured := p.MeasuredSPI()
	if measured <= 0 {
		return nil, fmt.Errorf("selection: %s: measured SPI is zero", p.App)
	}
	projected := ProjectSPI(ivs, res.Selections)
	ev.ErrorPct = math.Abs(measured-projected) / measured * 100

	var selInstrs uint64
	for _, s := range res.Selections {
		selInstrs += ivs[s.Interval].Instrs
	}
	total := p.TotalInstrs()
	ev.SelectedFrac = float64(selInstrs) / float64(total)
	if selInstrs > 0 {
		ev.Speedup = float64(total) / float64(selInstrs)
	}
	return ev, nil
}

// EvaluateAll runs the pipeline for every configuration in the 30-point
// exploration space.
func EvaluateAll(p *profile.Profile, opts Options) ([]*Evaluation, error) {
	configs := AllConfigs()
	out := make([]*Evaluation, 0, len(configs))
	for _, cfg := range configs {
		ev, err := Evaluate(p, cfg, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// MinError returns the evaluation with the smallest error — the
// per-application policy of Figure 6. Ties break toward the smaller
// selection.
func MinError(evals []*Evaluation) *Evaluation {
	var best *Evaluation
	for _, ev := range evals {
		switch {
		case best == nil,
			ev.ErrorPct < best.ErrorPct,
			ev.ErrorPct == best.ErrorPct && ev.SelectedFrac < best.SelectedFrac:
			best = ev
		}
	}
	return best
}

// SmallestUnderThreshold returns the evaluation with the smallest
// selection size among those with error below thresholdPct; if none
// qualifies, it falls back to the minimum-error evaluation — the joint
// optimization policy of Figure 7.
func SmallestUnderThreshold(evals []*Evaluation, thresholdPct float64) *Evaluation {
	var best *Evaluation
	for _, ev := range evals {
		if ev.ErrorPct >= thresholdPct {
			continue
		}
		if best == nil || ev.SelectedFrac < best.SelectedFrac {
			best = ev
		}
	}
	if best == nil {
		return MinError(evals)
	}
	return best
}

// Retime recomputes interval times from a re-timed profile (same
// invocation sequence, new per-invocation timings), preserving the
// interval boundaries and instruction counts.
func Retime(ivs []intervals.Interval, p *profile.Profile) []intervals.Interval {
	out := make([]intervals.Interval, len(ivs))
	for i, iv := range ivs {
		n := iv
		n.TimeSec = 0
		for j := iv.Start; j < iv.End; j++ {
			n.TimeSec += p.Invocations[j].TimeSec
		}
		out[i] = n
	}
	return out
}

// CrossError evaluates a previously chosen selection against a new timed
// execution of the same application — another trial, another frequency,
// or another architecture generation (Section V-E, Figure 8). newTimesNs
// is indexed by invocation sequence; the invocation structure must match
// the profile the selection was built from (guaranteed by CoFluent
// replay).
func CrossError(ev *Evaluation, base *profile.Profile, newTimesNs []float64) (float64, error) {
	np, err := base.WithTimes(newTimesNs)
	if err != nil {
		return 0, fmt.Errorf("selection: cross error: %w", err)
	}
	ivs := Retime(ev.Intervals, np)
	measured := np.MeasuredSPI()
	if measured <= 0 {
		return 0, fmt.Errorf("selection: cross error: measured SPI is zero")
	}
	projected := ProjectSPI(ivs, ev.Selections)
	return math.Abs(measured-projected) / measured * 100, nil
}
