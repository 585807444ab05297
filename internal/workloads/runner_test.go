package workloads

import (
	"math"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/selection"
	"gtpin/internal/xlate"
)

// TestRunPipelineDeterministic: the full profiling pipeline (plain run +
// instrumented replay + profile join) is deterministic given the same
// trial seed, and functionally identical under different trial seeds.
func TestRunPipelineDeterministic(t *testing.T) {
	spec, err := ByName("cb-throughput-juliaset")
	if err != nil {
		t.Fatal(err)
	}
	cfg := device.IvyBridgeHD4000()
	r1, err := Run(spec, ScaleTiny, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec, ScaleTiny, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(spec, ScaleTiny, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2, p3 := r1.Profile, r2.Profile, r3.Profile
	if p1.TotalInstrs() != p2.TotalInstrs() || p1.TotalInstrs() != p3.TotalInstrs() {
		t.Fatal("instruction counts must be trial-invariant")
	}
	if p1.TotalTimeSec() != p2.TotalTimeSec() {
		t.Error("same trial seed must reproduce timings exactly")
	}
	if p1.TotalTimeSec() == p3.TotalTimeSec() {
		t.Error("different trial seeds must jitter timings")
	}
	// The timing difference is small (a couple of percent).
	ratio := p3.TotalTimeSec() / p1.TotalTimeSec()
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("trial-to-trial time ratio = %f", ratio)
	}
}

// TestTimedReplayMatchesInvocations: a timed replay yields exactly one
// timing per invocation, all positive.
func TestTimedReplayMatchesInvocations(t *testing.T) {
	spec, err := ByName("cb-gaussian-buffer")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, ScaleTiny, device.IvyBridgeHD4000(), 1)
	if err != nil {
		t.Fatal(err)
	}
	times, err := TimedReplay(res.Recording, device.IvyBridgeHD4000(), 2, xlate.Target{})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(res.Profile.Invocations) {
		t.Fatalf("timings = %d, invocations = %d", len(times), len(res.Profile.Invocations))
	}
	for i, tm := range times {
		if tm <= 0 {
			t.Fatalf("timing %d = %f", i, tm)
		}
	}
}

// TestCrossFrequencyReplaySlowsDown: replaying at a lower frequency is
// slower, sub-linearly (memory time does not scale with the clock).
func TestCrossFrequencyReplaySlowsDown(t *testing.T) {
	spec, err := ByName("sandra-proc-gpu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, ScaleTiny, device.IvyBridgeHD4000(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := TimedReplay(res.Recording, device.IvyBridgeHD4000(), 1, xlate.Target{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := TimedReplay(res.Recording, device.IvyBridgeHD4000().WithFrequency(350), 1, xlate.Target{})
	if err != nil {
		t.Fatal(err)
	}
	var fSum, sSum float64
	for i := range fast {
		fSum += fast[i]
		sSum += slow[i]
	}
	if sSum <= fSum {
		t.Fatalf("350MHz not slower: %f vs %f", sSum, fSum)
	}
	if sSum/fSum > 1150.0/350.0+0.2 {
		t.Errorf("slowdown %.2f exceeds the clock ratio", sSum/fSum)
	}
}

// TestSelectionTransfersToHaswell: end-to-end Section V-E at tiny scale —
// selections chosen on Ivy Bridge predict a Haswell execution within a
// loose bound.
func TestSelectionTransfersToHaswell(t *testing.T) {
	spec, err := ByName("cb-physics-ocean-surf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, ScaleSmall, device.IvyBridgeHD4000(), 1)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := selection.EvaluateAll(res.Profile, selection.Options{
		ApproxTarget: ApproxTarget(ScaleSmall), Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := selection.MinError(evals)
	times, err := TimedReplay(res.Recording, device.HaswellHD4600(), 1, xlate.Target{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := selection.CrossError(best, res.Profile, times)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(e) || e > 12 {
		t.Errorf("cross-architecture error = %.2f%%", e)
	}
}

// TestLuxMarkScoresFavorHaswell reproduces the paper's raw-performance
// sanity check (HD4000: 269 vs HD4600: 351 — a 1.30x ratio).
func TestLuxMarkScoresFavorHaswell(t *testing.T) {
	ivb, err := LuxMarkScore(device.IvyBridgeHD4000(), xlate.Target{})
	if err != nil {
		t.Fatal(err)
	}
	hsw, err := LuxMarkScore(device.HaswellHD4600(), xlate.Target{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := hsw / ivb
	if ratio < 1.1 || ratio > 1.6 {
		t.Errorf("HD4600/HD4000 = %.2f, want ≈1.30 (paper: 351/269)", ratio)
	}
}

func TestApproxTargetScales(t *testing.T) {
	if ApproxTarget(ScaleFull) != 10000 {
		t.Errorf("full target = %d", ApproxTarget(ScaleFull))
	}
	if ApproxTarget(ScaleTiny) < 500 {
		t.Error("tiny target below floor")
	}
	if ApproxTarget(ScaleTiny) >= ApproxTarget(ScaleFull) {
		t.Error("targets must scale down")
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("no-such-benchmark"); err == nil {
		t.Error("expected error")
	}
	if s, err := ByName("cb-graphics-t-rex"); err != nil || s.Name != "cb-graphics-t-rex" {
		t.Errorf("lookup failed: %v %v", s, err)
	}
}
