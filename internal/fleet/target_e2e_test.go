package fleet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gtpin/internal/workloads"
	"gtpin/internal/xlate"
)

// TestFleetHonoursISATarget: units carrying a non-native ISA target must
// merge from fleet workers to the same keys and artifacts the in-process
// pool produces. Workers are re-executions with no command-line flags,
// so the target reaches them only through the lease descriptor.
func TestFleetHonoursISATarget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	native := fleetUnits(t, 1)
	units := make([]workloads.Unit, len(native))
	for i, u := range native {
		u.Target = xlate.Target{Dialect: "genx"}
		units[i] = u
	}

	pool, err := workloads.RunPool(context.Background(), units, workloads.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, pool)
	nat, err := workloads.RunPool(context.Background(), native, workloads.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i, data := range encodeAll(t, nat) {
		differs = differs || !bytes.Equal(data, want[i])
	}
	if !differs {
		t.Fatal("GENX artifacts equal native ones; the test cannot tell targets apart")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outs, err := Run(ctx, units, Options{Workers: 2, PollInterval: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	got := encodeAll(t, outs)
	for i := range want {
		if outs[i].Unit.Key() != pool[i].Unit.Key() {
			t.Errorf("unit %d: fleet key %s, pool key %s", i, outs[i].Unit.Key(), pool[i].Unit.Key())
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("unit %s: fleet artifact differs from the in-process pool's", units[i].Key())
		}
	}
}
