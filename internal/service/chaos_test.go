package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gtpin/internal/faults"
	"gtpin/internal/sweep"
	"gtpin/internal/workloads"
)

// scriptedRunner drives executeJob with a per-(unit, pass) script while
// honoring the pool contract the real RunPool provides: outcomes settle
// in unit order, OnOutcome fires per settled unit, and cancellation
// stops dispatch (undispatched units keep zero-value outcomes, i.e.
// "skipped").
func scriptedRunner(script func(u workloads.Unit, pass int) workloads.Outcome) runner {
	var mu sync.Mutex
	pass := 0
	return func(ctx context.Context, units []workloads.Unit, opts sweep.Options) ([]workloads.Outcome, error) {
		mu.Lock()
		p := pass
		pass++
		mu.Unlock()
		outs := make([]workloads.Outcome, len(units))
		for i, u := range units {
			outs[i].Unit = u
			if ctx.Err() != nil {
				continue // undispatched
			}
			outs[i] = script(u, p)
			outs[i].Unit = u
			if opts.OnOutcome != nil {
				opts.OnOutcome(outs[i])
			}
		}
		return outs, ctx.Err()
	}
}

func transientErr() error {
	return fmt.Errorf("scripted: %w", faults.ErrSendFault)
}

// TestRetryPassRecoversTransientFailure: a unit that fails transiently
// on the first pass is re-dispatched after backoff and succeeds; the
// job still settles done.
func TestRetryPassRecoversTransientFailure(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, MaxRetryPasses: 2})
	s.run = scriptedRunner(func(u workloads.Unit, pass int) workloads.Outcome {
		if pass == 0 && u.TrialSeed == 2 {
			return workloads.Outcome{Err: transientErr(), Attempts: 3}
		}
		return workloads.Outcome{Artifact: &workloads.Artifact{App: u.Spec.Name}, Attempts: 1}
	})

	r := postJob(t, s, `{"id":"r1","kind":"characterize","apps":["cb-gaussian-buffer"],"trials":3}`, "")
	r.Body.Close()
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", r.Status)
	}
	j := mustJob(t, s, "r1")
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("job settled %s (%s), want done", st, j.View().Error)
	}
	v := j.View()
	if v.Passes != 2 || v.Retries != 1 || v.UnitsDone != 3 || v.UnitsFailed != 0 {
		t.Fatalf("progress = %+v", v.Progress)
	}

	// result.json records the recovered unit as completed.
	var rf resultFile
	readJSONFile(t, filepath.Join(s.jobDir("r1"), "result.json"), &rf)
	for _, u := range rf.Units {
		if u.Status != "completed" {
			t.Fatalf("unit %s status %s after retry", u.Key, u.Status)
		}
	}
}

// TestPermanentFailureNotRetried: permanent faults burn no retry
// passes; the job degrades to partial with the failure classified.
func TestPermanentFailureNotRetried(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	s := newTestServer(t, Config{JobWorkers: 1, MaxRetryPasses: 3})
	s.run = scriptedRunner(func(u workloads.Unit, pass int) workloads.Outcome {
		mu.Lock()
		calls++
		mu.Unlock()
		if u.TrialSeed == 1 {
			return workloads.Outcome{Err: fmt.Errorf("scripted: %w", faults.ErrBadBinary), Attempts: 1}
		}
		return workloads.Outcome{Artifact: &workloads.Artifact{App: u.Spec.Name}, Attempts: 1}
	})

	r := postJob(t, s, `{"id":"p1","kind":"characterize","apps":["cb-gaussian-buffer"],"trials":2}`, "")
	r.Body.Close()
	j := mustJob(t, s, "p1")
	if st := waitTerminal(t, j); st != StatePartial {
		t.Fatalf("job settled %s, want partial", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("permanent failure was re-dispatched: %d unit executions, want 2", calls)
	}
	var rf resultFile
	readJSONFile(t, filepath.Join(s.jobDir("p1"), "result.json"), &rf)
	if rf.Units[0].Status != "failed" || rf.Units[0].Class != "bad kernel binary" {
		t.Fatalf("failed unit row = %+v", rf.Units[0])
	}
}

// TestBreakerDegradesToPartial: consecutive failures trip the per-job
// breaker; the remaining units are skipped, not executed, and the job
// settles partial.
func TestBreakerDegradesToPartial(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, BreakerThreshold: 3, MaxRetryPasses: -1})
	s.run = scriptedRunner(func(u workloads.Unit, pass int) workloads.Outcome {
		if u.TrialSeed <= 2 {
			return workloads.Outcome{Artifact: &workloads.Artifact{App: u.Spec.Name}, Attempts: 1}
		}
		return workloads.Outcome{Err: transientErr(), Attempts: 3}
	})

	r := postJob(t, s, `{"id":"b1","kind":"characterize","apps":["cb-gaussian-buffer"],"trials":8}`, "")
	r.Body.Close()
	j := mustJob(t, s, "b1")
	if st := waitTerminal(t, j); st != StatePartial {
		t.Fatalf("job settled %s (%s), want partial", st, j.View().Error)
	}
	v := j.View()
	if !v.BreakerTripped {
		t.Fatalf("breaker not recorded as tripped: %+v", v.Progress)
	}
	if v.UnitsDone != 2 || v.UnitsFailed != 3 || v.UnitsSkipped != 3 {
		t.Fatalf("progress = %+v", v.Progress)
	}
	var rf resultFile
	readJSONFile(t, filepath.Join(s.jobDir("b1"), "result.json"), &rf)
	skipped := 0
	for _, u := range rf.Units {
		if u.Status == "skipped" {
			skipped++
		}
	}
	if skipped != 3 {
		t.Fatalf("result records %d skipped units, want 3", skipped)
	}
}

// TestChaosInjectorDeterministic runs the real pool under the real
// fault injector at rate 1: every execution attempt fails the same way
// every time, so retry passes are exercised end to end and two
// independent runs of the same spec settle identically — including
// their result.json bytes.
func TestChaosInjectorDeterministic(t *testing.T) {
	const spec = `{"id":"x1","kind":"characterize","apps":["cb-gaussian-buffer"],"scale":"tiny","fault_rate":1,"fault_seed":7}`

	run := func() (State, Progress, []byte) {
		s := newTestServer(t, Config{JobWorkers: 1, UnitWorkers: 1, MaxRetryPasses: 1, BreakerThreshold: -1})
		r := postJob(t, s, spec, "")
		r.Body.Close()
		if r.StatusCode != http.StatusCreated {
			t.Fatalf("submit: %s", r.Status)
		}
		j := mustJob(t, s, "x1")
		st := waitTerminal(t, j)
		data, err := os.ReadFile(filepath.Join(s.jobDir("x1"), "result.json"))
		if err != nil {
			t.Fatalf("read result.json: %v", err)
		}
		return st, j.View().Progress, data
	}

	st1, p1, res1 := run()
	st2, p2, res2 := run()
	if st1 != st2 || p1 != p2 {
		t.Fatalf("chaos runs diverged: %s %+v vs %s %+v", st1, p1, st2, p2)
	}
	if string(res1) != string(res2) {
		t.Fatalf("chaos result.json diverged:\n%s\nvs\n%s", res1, res2)
	}
	if st1 == StateDone {
		t.Fatalf("fault rate 1 produced a clean run; injector not engaged")
	}
	var rf resultFile
	if err := jsonUnmarshal(res1, &rf); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	for _, u := range rf.Units {
		if u.Status == "failed" && u.Class == "" {
			t.Fatalf("failed unit missing fault class: %+v", u)
		}
	}
}
