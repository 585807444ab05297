package detsim_test

import (
	"reflect"
	"testing"

	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/workloads"
	"gtpin/internal/xlate"
)

// recordUnit records the unit's application under its ISA target.
func recordUnit(t *testing.T, u workloads.Unit) *cofluent.Recording {
	t.Helper()
	rec, err := u.Record()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// simulate simulates a few invocations of rec in detail under target,
// both serially and from a captured snippet.
func simulate(t *testing.T, rec *cofluent.Recording, target xlate.Target) [2]*detsim.Report {
	t.Helper()
	cfg := detsim.DefaultConfig()
	cfg.Target = target
	ranges := []detsim.Range{{From: 2, To: 12, Warmup: 2}}
	sim, err := detsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sim.Run(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sim.RunSnippet(snips[0])
	if err != nil {
		t.Fatal(err)
	}
	return [2]*detsim.Report{serial, replayed}
}

// TestSimulateUsesRunTarget: subset simulation compiles the recording
// for the run's ISA target. A -dialect genx run records and simulates
// GENX code — its report matches simulating hand-retargeted IR and
// differs from the native one — and -translate gen brings the
// simulated code back to the native report.
func TestSimulateUsesRunTarget(t *testing.T) {
	spec, err := workloads.ByName("cb-physics-ocean-surf")
	if err != nil {
		t.Fatal(err)
	}
	native := workloads.Unit{Spec: spec, Scale: workloads.ScaleTiny, Cfg: device.IvyBridgeHD4000()}
	nrec := recordUnit(t, native)
	nat := simulate(t, nrec, native.Target)

	genx := native
	genx.Target = xlate.Target{Dialect: "genx"}
	grec := recordUnit(t, genx)
	for _, p := range grec.Programs {
		for _, k := range p.Kernels {
			if k.Dialect != isa.DialectGENX {
				t.Fatalf("-dialect genx recording keeps %s kernel %s", k.Dialect, k.Name)
			}
		}
	}
	// Simulating the native recording under the target must match
	// simulating hand-retargeted IR, and differ from native.
	oracle := &cofluent.Recording{App: nrec.App, Calls: nrec.Calls}
	for _, p := range nrec.Programs {
		rp, err := xlate.RetargetProgram(p, isa.DialectGENX)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Programs = append(oracle.Programs, rp)
	}
	want := simulate(t, oracle, xlate.Target{})
	if got := simulate(t, nrec, genx.Target); !reflect.DeepEqual(got, want) {
		t.Fatalf("GENX simulation differs from simulating retargeted IR:\n got %+v\nwant %+v", got, want)
	}
	if got := simulate(t, grec, genx.Target); !reflect.DeepEqual(got, want) {
		t.Fatalf("GENX recording simulates differently from retargeted IR:\n got %+v\nwant %+v", got, want)
	}
	if reflect.DeepEqual(want, nat) {
		t.Fatal("GENX and native simulations agree; the test cannot tell targets apart")
	}

	back := xlate.Target{Dialect: "genx", Translate: "gen"}
	brec := recordUnit(t, workloads.Unit{Spec: spec, Scale: workloads.ScaleTiny, Cfg: device.IvyBridgeHD4000(), Target: back})
	if got := simulate(t, brec, back); !reflect.DeepEqual(got, nat) {
		t.Fatalf("translated-back simulation differs from native:\n got %+v\nwant %+v", got, nat)
	}
}
