package sweep

import (
	"context"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"gtpin/internal/workloads"
	"gtpin/internal/xlate"
)

func TestUnitsOrder(t *testing.T) {
	apps, err := ParseApps([]string{"sandra-proc-gpu", "cb-gaussian-buffer"})
	if err != nil {
		t.Fatal(err)
	}
	target := xlate.Target{Dialect: "genx"}
	s := &Spec{Apps: apps, Scale: workloads.ScaleTiny, Trials: 2, Target: target,
		Faults: FaultOptions(0.1, 7, 0)}
	var got []string
	for _, u := range s.Units() {
		if u.Target != target || u.Faults != s.Faults {
			t.Fatalf("unit %s lost the spec's target or fault model", u.Key())
		}
		got = append(got, fmt.Sprintf("%s/%d", u.Spec.Name, u.TrialSeed))
	}
	want := []string{"sandra-proc-gpu/1", "cb-gaussian-buffer/1", "sandra-proc-gpu/2", "cb-gaussian-buffer/2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("units %v, want %v (app order, then trial)", got, want)
	}
	if n := len((&Spec{}).Units()); n != len(workloads.All()) {
		t.Fatalf("zero spec expands to %d units, want the %d-app roster once", n, len(workloads.All()))
	}
}

func TestFaultOptionsCleanIsNil(t *testing.T) {
	if FaultOptions(0, 9, 0) != nil {
		t.Fatal("a clean sweep got a fault model (its units would not share native keys)")
	}
	if fo := FaultOptions(0, 1, 100); fo == nil || fo.Watchdog != 100 {
		t.Fatalf("watchdog-only fault model = %+v", fo)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := ParseConfig("hd9999"); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := ParseApps([]string{"no-such-app"}); err == nil {
		t.Error("unknown app accepted")
	}
}

// flagDump renders a flag set as name=default lines, the command-line
// surface Bind must keep stable.
func flagDump(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) { b.WriteString(f.Name + "=" + f.DefValue + "\n") })
	return b.String()
}

func TestBindSurface(t *testing.T) {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	Bind(fs, "full", AppFlag|FaultFlags|TargetFlags|WorkerFlag|StateFlags|TimeoutFlag)
	want := strings.Join([]string{
		"app=", "debug-addr=", "dialect=", "fault-rate=0", "fault-seed=1", "fleet=0",
		"metrics=", "resume=false", "scale=full", "state-dir=", "timeout=0s", "trace=",
		"translate=", "watchdog=0", "workers=0",
	}, "\n") + "\n"
	if got := flagDump(fs); got != want {
		t.Fatalf("flag surface:\n%s\nwant:\n%s", got, want)
	}
	fs = flag.NewFlagSet("repro", flag.ContinueOnError)
	Bind(fs, "small", 0)
	if got := flagDump(fs); got != "debug-addr=\nmetrics=\nscale=small\ntrace=\n" {
		t.Fatalf("minimal flag surface:\n%s", got)
	}
}

func TestFlagsSpec(t *testing.T) {
	parse := func(args ...string) (*Spec, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Bind(fs, "full", AppFlag|FaultFlags|TargetFlags|StateFlags)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Spec()
	}
	s, err := parse("-scale", "tiny", "-app", "cb-gaussian-buffer", "-dialect", "GENX", "-translate", "gen")
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale != workloads.ScaleTiny || len(s.Apps) != 1 || s.Faults != nil ||
		s.Target != (xlate.Target{Dialect: "genx", Translate: "gen"}) {
		t.Fatalf("spec %+v", s)
	}
	for _, bad := range [][]string{
		{"-fault-rate", "1.5"}, {"-dialect", "ptx"}, {"-app", "nope"}, {"-scale", "huge"},
	} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Bind(fs, "tiny", StateFlags)
	if err := fs.Parse([]string{"-resume"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Start(context.Background(), "t"); err == nil || !strings.Contains(err.Error(), "-state-dir") {
		t.Fatalf("-resume without -state-dir: %v", err)
	}
}
