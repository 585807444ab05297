package workloads

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/runstate"
	"gtpin/internal/xlate"
)

var genx = xlate.Target{Dialect: "genx"}

// TestNativeKeysUnchanged: a native-target unit keeps its historical
// journal key and lease bytes, so journals written before the ISA
// target became unit configuration still resume.
func TestNativeKeysUnchanged(t *testing.T) {
	spec, err := ByName("cb-gaussian-buffer")
	if err != nil {
		t.Fatal(err)
	}
	u := Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1}
	const want = "cb-gaussian-buffer|HD4000 (Ivy Bridge)@1150MHz|tiny|t1|clean"
	if got := u.Key(); got != want {
		t.Fatalf("native key %q, want %q", got, want)
	}
	d, err := u.Descriptor()
	if err != nil {
		t.Fatal(err)
	}
	if d.Key() != want {
		t.Fatalf("descriptor key %q, want %q", d.Key(), want)
	}
	data, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"dialect"`)) || bytes.Contains(data, []byte(`"translate"`)) {
		t.Fatalf("native lease descriptor carries a target: %s", data)
	}
}

// TestTargetFoldsIntoKeys: a non-native target gets its own journal key,
// which survives the lease round trip together with the target itself.
func TestTargetFoldsIntoKeys(t *testing.T) {
	spec, err := ByName("cb-gaussian-buffer")
	if err != nil {
		t.Fatal(err)
	}
	native := Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1}
	for _, target := range []xlate.Target{genx, {Translate: "genx"}, {Dialect: "genx", Translate: "gen"}} {
		u := native
		u.Target = target
		if u.Key() == native.Key() || !strings.HasPrefix(u.Key(), native.Key()+"|") {
			t.Errorf("target %v: key %q does not extend native key %q", target, u.Key(), native.Key())
		}
		if replayKey(u, nil) == replayKey(native, nil) {
			t.Errorf("target %v shares the native replay-cache key", target)
		}
		d, err := u.Descriptor()
		if err != nil {
			t.Fatal(err)
		}
		data, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeDescriptor(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Key() != u.Key() {
			t.Errorf("target %v: decoded descriptor key %q, want %q", target, back.Key(), u.Key())
		}
		bu, err := back.Unit()
		if err != nil {
			t.Fatal(err)
		}
		if bu.Target != target || bu.Key() != u.Key() {
			t.Errorf("target %v: lease round trip rebuilt target %v, key %q", target, bu.Target, bu.Key())
		}
	}
}

// TestResumeUnderOtherTargetReexecutes: resuming a native journaled
// sweep with a GENX target must execute the GENX units, not adopt the
// native artifacts — and the GENX artifacts really differ.
func TestResumeUnderOtherTargetReexecutes(t *testing.T) {
	spec, err := ByName("cb-physics-ocean-surf")
	if err != nil {
		t.Fatal(err)
	}
	native := []Unit{{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1}}
	dir := filepath.Join(t.TempDir(), "state")
	state, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := RunPool(context.Background(), native, PoolOptions{State: state})
	state.Close()
	if err != nil || nat[0].Err != nil {
		t.Fatalf("native run: %v / %v", err, nat[0].Err)
	}

	retargeted := []Unit{native[0]}
	retargeted[0].Target = genx
	state, err = runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	got, err := RunPool(context.Background(), retargeted, PoolOptions{State: state, Resume: true})
	if err != nil || got[0].Err != nil {
		t.Fatalf("resumed run: %v / %v", err, got[0].Err)
	}
	if got[0].Resumed {
		t.Fatal("GENX unit adopted the native unit's journaled artifact")
	}
	want, err := RunPool(context.Background(), retargeted, PoolOptions{})
	if err != nil || want[0].Err != nil {
		t.Fatalf("fresh GENX run: %v / %v", err, want[0].Err)
	}
	if !bytes.Equal(encode(t, got[0]), encode(t, want[0])) {
		t.Fatal("resumed GENX artifact differs from a fresh GENX run")
	}
	if bytes.Equal(encode(t, got[0]), encode(t, nat[0])) {
		t.Fatal("GENX and native artifacts are identical; the test cannot tell targets apart")
	}
}

// TestReplayCacheSeparatesTargets: one pool (one replay cache) over the
// same application under two targets yields each target's own artifact.
func TestReplayCacheSeparatesTargets(t *testing.T) {
	spec, err := ByName("cb-physics-ocean-surf")
	if err != nil {
		t.Fatal(err)
	}
	native := Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1}
	retargeted := native
	retargeted.Target = genx
	mixed, err := RunPool(context.Background(), []Unit{native, retargeted}, PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunPool(context.Background(), []Unit{retargeted}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, mixed[1]), encode(t, alone[0])) {
		t.Fatal("GENX unit sharing a replay cache with its native twin produced the native artifact")
	}
}

func encode(t *testing.T, o Outcome) []byte {
	t.Helper()
	if o.Err != nil {
		t.Fatalf("unit %s: %v", o.Unit.Key(), o.Err)
	}
	data, err := o.Artifact.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
