package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gtpin/internal/runstate"
	"gtpin/internal/sweep"
	"gtpin/internal/workloads"
)

// State is a job's lifecycle state. Transitions:
//
//	queued → running → done | partial | failed | cancelled
//
// plus queued → cancelled for jobs cancelled before a worker claims
// them. A daemon crash or drain leaves the on-disk state at queued or
// running; the next start re-queues exactly those (resume.go).
type State string

// The job lifecycle.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // every unit completed
	StatePartial   State = "partial"   // degraded: some units failed or were skipped
	StateFailed    State = "failed"    // no usable unit artifacts, or a job-level error
	StateCancelled State = "cancelled" // cancelled by the client
)

// Terminal reports whether no further transitions happen.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Job kinds. They share the execution engine (a supervised profiling
// sweep); the kind is recorded so clients and future report endpoints
// know what the artifacts feed. repro jobs additionally persist each
// unit's CoFluent recording, which its replay validations need.
const (
	KindCharacterize = "characterize"
	KindRepro        = "repro"
	KindSubsets      = "subsets"
)

// JobSpec is the client-submitted description of one job — the POST
// /api/v1/jobs body. The zero value of every optional field selects a
// default; Validate canonicalizes the spec so equal submissions are
// byte-equal after normalization.
type JobSpec struct {
	// ID is an optional idempotency key (also the job's directory
	// name). Re-submitting an existing ID with the same spec returns
	// the existing job instead of a duplicate. Assigned by the server
	// when empty.
	ID string `json:"id,omitempty"`
	// Kind is characterize, repro, or subsets.
	Kind string `json:"kind"`
	// Apps selects benchmarks by name; empty means the full roster.
	Apps []string `json:"apps,omitempty"`
	// Scale is full, small, or tiny (default tiny).
	Scale string `json:"scale,omitempty"`
	// Trials is the number of trial seeds per app (default 1).
	Trials int `json:"trials,omitempty"`
	// Config is the device configuration: hd4000 (default) or hd4600.
	Config string `json:"config,omitempty"`
	// FaultRate/FaultSeed/Watchdog request chaos-mode profiling; a
	// tenant policy with its own fault model overrides them.
	FaultRate float64 `json:"fault_rate,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	Watchdog  uint64  `json:"watchdog,omitempty"`
	// TimeoutSec is the per-job deadline in seconds (0 = none): when it
	// expires the job fails with a deadline error and its journal keeps
	// the completed units.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Fleet distributes the job's sweep across N worker processes with
	// lease-based fault tolerance (internal/fleet) instead of the
	// in-process pool. 0 (the default) runs in-process; either way the
	// result artifacts are byte-identical.
	Fleet int `json:"fleet,omitempty"`
}

// Validate canonicalizes the spec in place (defaults filled, apps
// verified) and rejects malformed submissions.
func (sp *JobSpec) Validate() error {
	switch sp.Kind {
	case KindCharacterize, KindRepro, KindSubsets:
	case "":
		return fmt.Errorf("missing kind (want characterize, repro, or subsets)")
	default:
		return fmt.Errorf("unknown kind %q (want characterize, repro, or subsets)", sp.Kind)
	}
	if sp.ID != "" {
		if len(sp.ID) > 64 {
			return fmt.Errorf("job id longer than 64 bytes")
		}
		for i := 0; i < len(sp.ID); i++ {
			c := sp.ID[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
				return fmt.Errorf("job id %q: only [A-Za-z0-9._-] allowed", sp.ID)
			}
		}
		if sp.ID == "." || sp.ID == ".." {
			return fmt.Errorf("job id %q reserved", sp.ID)
		}
	}
	if sp.Scale == "" {
		sp.Scale = "tiny"
	}
	if sp.Trials == 0 {
		sp.Trials = 1
	}
	if sp.Trials < 0 || sp.Trials > 64 {
		return fmt.Errorf("trials %d outside [1,64]", sp.Trials)
	}
	if sp.Config == "" {
		sp.Config = "hd4000"
	}
	if _, err := sp.sweep(); err != nil {
		return err
	}
	if sp.FaultRate < 0 || sp.FaultRate > 1 {
		return fmt.Errorf("fault_rate %v outside [0,1]", sp.FaultRate)
	}
	if sp.TimeoutSec < 0 {
		return fmt.Errorf("timeout_sec %v negative", sp.TimeoutSec)
	}
	if sp.Fleet < 0 || sp.Fleet > 32 {
		return fmt.Errorf("fleet %d outside [0,32]", sp.Fleet)
	}
	return nil
}

// sweep is the sweep the (validated, policy-folded) spec describes:
// apps × trials under the spec's fault model, in canonical order (app
// list order, then trial), which is what makes result.json
// deterministic.
func (sp *JobSpec) sweep() (*sweep.Spec, error) {
	sc, err := sweep.ParseScale(sp.Scale)
	if err != nil {
		return nil, err
	}
	cfg, err := sweep.ParseConfig(sp.Config)
	if err != nil {
		return nil, err
	}
	apps, err := sweep.ParseApps(sp.Apps)
	if err != nil {
		return nil, err
	}
	return &sweep.Spec{
		Apps: apps, Scale: sc, Config: cfg, Trials: sp.Trials,
		Faults: sweep.FaultOptions(sp.FaultRate, sp.FaultSeed, sp.Watchdog),
		Fleet:  sp.Fleet,
	}, nil
}

// applyPolicy folds the tenant policy into the spec at admission time:
// a policy that dials chaos (rate or watchdog) wins over the spec's own
// request, so operators control what each client's jobs are subjected
// to. Folding happens before job.json is persisted, which is what makes
// a crash-resumed job re-execute under the same fault model even if the
// daemon restarts with a different tenant table.
func (sp *JobSpec) applyPolicy(p Policy) {
	if p.FaultRate > 0 || p.Watchdog > 0 {
		sp.FaultRate, sp.FaultSeed, sp.Watchdog = p.FaultRate, p.FaultSeed, p.Watchdog
	}
}

// Job is one admitted job's runtime state. The mutable fields are
// guarded by mu; the public fields are immutable after admission.
type Job struct {
	ID     string
	Tenant string
	Spec   JobSpec

	dir string // <root>/jobs/<ID>

	mu          sync.Mutex
	state       State
	errText     string
	progress    Progress
	cancel      func() // non-nil while the job is executing
	cancelAsked bool   // client requested cancellation
	done        chan struct{}
}

// Progress is a job's unit accounting, updated as outcomes settle.
type Progress struct {
	UnitsTotal     int  `json:"units_total"`
	UnitsDone      int  `json:"units_done"`
	UnitsFailed    int  `json:"units_failed"`
	UnitsSkipped   int  `json:"units_skipped"`
	UnitsResumed   int  `json:"units_resumed"`
	Retries        int  `json:"retries"`
	Passes         int  `json:"passes"`
	BreakerTripped bool `json:"breaker_tripped,omitempty"`
}

func newJob(id, tenant string, spec JobSpec, dir string) *Job {
	return &Job{
		ID: id, Tenant: tenant, Spec: spec, dir: dir,
		state: StateQueued, done: make(chan struct{}),
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state in this process.
func (j *Job) Done() <-chan struct{} { return j.done }

// View renders the job for the HTTP API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID: j.ID, Kind: j.Spec.Kind, Tenant: j.Tenant,
		State: j.state, Error: j.errText, Progress: j.progress,
	}
}

// JobView is the API rendering of one job.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	Error  string `json:"error,omitempty"`
	Progress
}

// persistedStatus is status.json: the minimum the next daemon start
// needs to classify the job (resume vs already-terminal) and reattach
// it to its tenant. Unlike result.json it is allowed to carry
// non-deterministic detail (error text).
type persistedStatus struct {
	State    State    `json:"state"`
	Tenant   string   `json:"tenant,omitempty"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
}

// persist writes job.json (the canonical spec) — called once at
// admission, before the job becomes poppable.
func (j *Job) persistSpec() error {
	data, err := json.MarshalIndent(&j.Spec, "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshal job spec: %w", err)
	}
	return runstate.WriteFileAtomic(filepath.Join(j.dir, "job.json"), append(data, '\n'))
}

// setState transitions the job, persists status.json, and closes Done
// on terminal states. Persistence errors are returned but the in-memory
// transition always happens — an unwritable disk must not wedge the
// queue.
func (j *Job) setState(st State, errText string) error {
	j.mu.Lock()
	j.state = st
	if errText != "" {
		j.errText = errText
	}
	status := persistedStatus{State: st, Tenant: j.Tenant, Error: j.errText, Progress: j.progress}
	terminal := st.Terminal()
	j.mu.Unlock()
	if terminal {
		defer close(j.done)
	}
	data, err := json.MarshalIndent(&status, "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshal status: %w", err)
	}
	return runstate.WriteFileAtomic(filepath.Join(j.dir, "status.json"), append(data, '\n'))
}

// noteOutcome folds one settled unit into the live progress counters.
// They are approximate across retry passes (a unit that fails and then
// retries successfully counts in both columns for a moment); the pass
// boundary recomputes them exactly (mutateProgress in exec.go).
func (j *Job) noteOutcome(o workloads.Outcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case o.Err != nil:
		j.progress.UnitsFailed++
	case o.Artifact != nil:
		j.progress.UnitsDone++
		if o.Resumed {
			j.progress.UnitsResumed++
		}
	}
}

// mutateProgress applies an exact update under the job lock.
func (j *Job) mutateProgress(f func(*Progress)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f(&j.progress)
}

// setCancel installs (or clears, with nil) the running job's cancel
// hook.
func (j *Job) setCancel(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = fn
}

// requestCancel records a client cancellation and fires the cancel hook
// if the job is executing. The flag is what distinguishes "client
// cancelled" from "daemon shutting down" when the pool context dies.
func (j *Job) requestCancel() {
	j.mu.Lock()
	j.cancelAsked = true
	fn := j.cancel
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// cancelRequested reports whether a client asked to cancel.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsked
}

// readSpec loads a persisted job.json.
func readSpec(dir string) (JobSpec, error) {
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return JobSpec{}, err
	}
	var sp JobSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return JobSpec{}, fmt.Errorf("service: %s/job.json: %w", dir, err)
	}
	return sp, nil
}

// readStatus loads a persisted status.json; a missing file means the
// job never left queued.
func readStatus(dir string) (persistedStatus, error) {
	data, err := os.ReadFile(filepath.Join(dir, "status.json"))
	if os.IsNotExist(err) {
		return persistedStatus{State: StateQueued}, nil
	}
	if err != nil {
		return persistedStatus{}, err
	}
	var st persistedStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return persistedStatus{}, fmt.Errorf("service: %s/status.json: %w", dir, err)
	}
	return st, nil
}
