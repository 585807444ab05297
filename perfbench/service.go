package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gtpin/internal/service"
	"gtpin/internal/workloads"
)

const (
	// serviceRate is the offered load in jobs per second. It keeps a
	// 2-core host about a third busy: at 3 jobs/s and more, queueing
	// amplifies the host's own speed swings into the latency.
	serviceRate = 2.0
	// serviceSLO is the latency limit a job must meet, from its due time.
	serviceSLO = time.Second
	// fleetEvery makes every fleetEvery-th job a two-worker fleet job.
	fleetEvery = 4
	// pollEvery is the poller's period; it bounds how late a state
	// transition is seen.
	pollEvery = 10 * time.Millisecond
	// drainLimit bounds how long after the window the poller waits for
	// admitted jobs to finish; a job still open then counts as failed.
	drainLimit = 60 * time.Second
)

// jobPlan is one job of the open-loop schedule: when it is due (from the
// window's start) and what it asks for.
type jobPlan struct {
	due  time.Duration
	spec service.JobSpec
}

// planJobs draws the schedule from the seed: jobs due at a fixed rate,
// each a small-scale characterize job of 1–3 applications drawn with
// replacement and 1–3 trials, every fleetEvery-th one on a 2-worker
// fleet. The nine (applications, trials) shapes are dealt in seeded
// blocks of nine, so every run offers the same mix of job sizes.
func planJobs(seed int64, window time.Duration) []jobPlan {
	rng := rand.New(rand.NewSource(seed))
	specs := workloads.All()
	n := int(window.Seconds() * serviceRate)
	plans := make([]jobPlan, n)
	var shapes []int
	for i := range plans {
		if len(shapes) == 0 {
			shapes = rng.Perm(9)
		}
		shape := shapes[0]
		shapes = shapes[1:]
		apps := make([]string, 1+shape/3)
		for k := range apps {
			apps[k] = specs[rng.Intn(len(specs))].Name
		}
		p := jobPlan{
			due:  time.Duration(float64(i) / serviceRate * float64(time.Second)),
			spec: service.JobSpec{Kind: service.KindCharacterize, Apps: apps, Scale: "small", Trials: 1 + shape%3},
		}
		if i%fleetEvery == fleetEvery-1 {
			p.spec.Fleet = 2
		}
		plans[i] = p
	}
	return plans
}

// jobTrack is what the load generator saw of one job.
type jobTrack struct {
	plan      jobPlan
	due       time.Time
	submitted time.Time // POST sent
	admitted  time.Time // POST answered
	code      int       // POST status
	id        string
	running   time.Time // first poll that saw it running (or finished)
	finished  time.Time // first poll that saw it terminal
	state     service.State
	errText   string
}

func (j *jobTrack) shed() bool       { return j.code != http.StatusCreated }
func (j *jobTrack) latency() float64 { return j.finished.Sub(j.due).Seconds() }

// settleJobs counts every planned job as attempted, and as failed when
// it was shed, ended in any state but done, or never ended.
func settleJobs(tracks []*jobTrack, t *tally) {
	for _, j := range tracks {
		switch {
		case j.shed():
			t.add(false, fmt.Sprintf("job shed (HTTP %d)", j.code))
		case j.finished.IsZero():
			t.add(false, "job unfinished")
		default:
			t.add(j.state == service.StateDone, "job "+string(j.state))
		}
	}
}

func logFailedJobs(e *env, tracks []*jobTrack) {
	for _, j := range tracks {
		if !j.shed() && j.state != service.StateDone {
			e.logf("job %s %v ended %q: %s", j.id, j.plan.spec.Apps, j.state, j.errText)
		}
	}
}

// sloMisses counts the jobs that were shed, did not end done, or ended
// later than serviceSLO after their due time.
func sloMisses(tracks []*jobTrack) int {
	n := 0
	for _, j := range tracks {
		if j.shed() || j.state != service.StateDone || j.latency() > serviceSLO.Seconds() {
			n++
		}
	}
	return n
}

// daemon is one in-process gtpind with its client.
type daemon struct {
	srv    *service.Server
	dir    string
	base   string
	client *http.Client
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: close service: %v\n", err)
	}
	os.RemoveAll(d.dir)
}

// startDaemon starts a default-config service on loopback under a fresh
// state directory and runs one warm-up job over the whole roster, so
// measured jobs meet the warm caches a long-lived daemon has.
func startDaemon(e *env) (*daemon, error) {
	dir, err := filepath.Abs(filepath.Join(e.outDir, fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, dir: dir, client: &http.Client{
		Timeout: 30 * time.Second,
		// At most one connection per core: the load generator is a
		// submitter and a poller, never a goroutine per job.
		Transport: &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers},
	}}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + srv.Addr()
	code, view, err := d.submit(service.JobSpec{Kind: service.KindCharacterize, Scale: "small", Trials: 1})
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("warm-up job: HTTP %d", code)
	}
	for err == nil && !view.State.Terminal() {
		time.Sleep(pollEvery)
		err = d.get("/api/v1/jobs/"+view.ID, &view)
	}
	if err == nil && view.State != service.StateDone {
		err = fmt.Errorf("warm-up job ended %s: %s", view.State, view.Error)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) submit(spec service.JobSpec) (int, service.JobView, error) {
	var view service.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, view, err
	}
	resp, err := d.client.Post(d.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, view, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, view, err
	}
	if resp.StatusCode == http.StatusCreated {
		err = json.Unmarshal(data, &view)
	}
	return resp.StatusCode, view, err
}

func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drive offers the planned jobs open-loop: one submitter posts each job
// at its due time, and one poller lists all jobs every pollEvery to see
// state transitions. It returns once every admitted job has ended, or
// drainLimit after the last submission, and never before the submitter
// has stopped.
func (d *daemon) drive(plans []jobPlan, tr *tracer) ([]*jobTrack, error) {
	tracks := make([]*jobTrack, len(plans))
	var (
		mu       sync.Mutex // guards byID, subDone, subErr and the jobs in byID
		byID     = map[string]*jobTrack{}
		subDone  bool
		subErr   error
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		deadline time.Time
	)
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := func() error {
			for i, p := range plans {
				j := &jobTrack{plan: p, due: t0.Add(p.due)}
				timer := time.NewTimer(time.Until(j.due))
				select {
				case <-timer.C:
				case <-stop:
					timer.Stop()
					return nil
				}
				j.submitted = time.Now()
				h := tr.begin("service.submit", fmt.Sprintf("plan-%d", i), 0)
				code, view, err := d.submit(p.spec)
				tr.end(h)
				if err != nil {
					return err
				}
				j.admitted, j.code, j.id = time.Now(), code, view.ID
				mu.Lock()
				tracks[i] = j
				if !j.shed() {
					byID[j.id] = j
				}
				mu.Unlock()
			}
			return nil
		}()
		mu.Lock()
		subDone, subErr = true, err
		mu.Unlock()
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for {
		time.Sleep(pollEvery)
		var list struct {
			Jobs []service.JobView `json:"jobs"`
		}
		if err := d.get("/api/v1/jobs", &list); err != nil {
			return nil, err
		}
		now := time.Now()
		open := 0
		mu.Lock()
		for _, v := range list.Jobs {
			j := byID[v.ID]
			if j == nil || !j.finished.IsZero() {
				continue
			}
			if v.State != service.StateQueued && j.running.IsZero() {
				j.running = now
			}
			if v.State.Terminal() {
				j.finished, j.state, j.errText = now, v.State, v.Error
				tr.record("service.queued", j.id, j.admitted, j.running)
				tr.record("service.running", j.id, j.running, j.finished)
			}
		}
		for _, j := range byID {
			if j.finished.IsZero() {
				open++
			}
		}
		done, err := subDone, subErr
		mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		if done && deadline.IsZero() {
			deadline = now.Add(drainLimit)
		}
		if done && (open == 0 || now.After(deadline)) {
			return tracks, nil
		}
	}
}

// checkResults fetches every done job's result.json and checks that
// all its units completed and that a unit key has the same artifact
// digest in every job — whether the job ran in-process or on a fleet,
// on a cold or a warm cache.
func (d *daemon) checkResults(tracks []*jobTrack) error {
	digests := map[string]string{}
	for _, j := range tracks {
		if j.shed() || j.state != service.StateDone {
			continue
		}
		var res struct {
			Units []struct {
				Key    string `json:"key"`
				Status string `json:"status"`
				Digest string `json:"digest"`
			} `json:"units"`
		}
		if err := d.get("/api/v1/jobs/"+j.id+"/result", &res); err != nil {
			return err
		}
		if len(res.Units) != len(j.plan.spec.Apps)*j.plan.spec.Trials {
			return fmt.Errorf("%w: job %s: %d result units, want %d", errCheck, j.id, len(res.Units), len(j.plan.spec.Apps)*j.plan.spec.Trials)
		}
		for _, u := range res.Units {
			if u.Status != "completed" || u.Digest == "" {
				return fmt.Errorf("%w: done job %s has unit %s %s", errCheck, j.id, u.Key, u.Status)
			}
			if prev, ok := digests[u.Key]; ok && prev != u.Digest {
				return fmt.Errorf("%w: unit %s has two artifact digests (job %s)", errCheck, u.Key, j.id)
			}
			digests[u.Key] = u.Digest
		}
	}
	return nil
}

// runService is the open-loop service workload. Traced runs split the
// window: the first half untraced, the second half with spans around
// each submission and each job's observed queue wait and run.
func runService(e *env) (*outcome, error) {
	d, setup, err := measureSetup(func() (*daemon, error) { return startDaemon(e) }, (*daemon).close)
	if err != nil {
		return nil, err
	}
	o, err := offerLoad(e, d, &outcome{setup: setup, figs: figures{}})
	d.close()
	// Fleet workers are this binary's children; none may outlive the run.
	if werr := waitChildren(10 * time.Second); werr != nil && err == nil {
		return nil, werr
	}
	return o, err
}

func offerLoad(e *env, d *daemon, o *outcome) (*outcome, error) {
	window := e.window
	if e.traced {
		window /= 2
	}
	plans := planJobs(e.seed, window)
	if len(plans) == 0 {
		return nil, fmt.Errorf("a %v window offers no jobs at %g jobs/s", window, serviceRate)
	}

	cpu0 := cpuTime()
	tracks, err := d.drive(plans, nil)
	o.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	checkErr := d.checkResults(tracks)
	settleJobs(tracks, &o.tally)
	logFailedJobs(e, tracks)
	lat := latencies(tracks)
	o.ops = lat
	o.figs["job_latency_p50_s"] = percentile(lat, 0.5)
	o.figs["job_latency_p90_s"] = percentile(lat, 0.9)
	o.figs["job_slo_miss_frac"] = ratio(float64(sloMisses(tracks)), float64(len(tracks)))
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job finished")
	}
	if !e.traced {
		o.figs["failed_frac"] = o.tally.frac()
		return o, checkErr
	}

	tr := newTracer()
	c0 := snapCounters()
	traced, err := d.drive(plans, tr)
	ctr := c0.delta(snapCounters())
	if err != nil {
		return nil, err
	}
	if cerr := d.checkResults(traced); cerr != nil && checkErr == nil {
		checkErr = cerr
	}
	settleJobs(traced, &o.tally)
	logFailedJobs(e, traced)
	o.figs["failed_frac"] = o.tally.frac()
	o.spans = tr.finish()
	serviceLayers(o.figs, traced, ctr)
	o.figs["bench.trace_overhead"] = percentile(latencies(traced), 0.5) / o.figs["job_latency_p50_s"]
	return o, checkErr
}

// waitChildren waits until this process has no child processes left,
// running or unreaped.
func waitChildren(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		tasks, err := filepath.Glob("/proc/self/task/*/children")
		if err != nil {
			return err
		}
		var kids []string
		for _, t := range tasks {
			data, err := os.ReadFile(t)
			if err != nil && !os.IsNotExist(err) {
				return err
			}
			kids = append(kids, strings.Fields(string(data))...)
		}
		if len(kids) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("child processes %v still running after %v", kids, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// latencies are the due-time latencies of the jobs that ended.
func latencies(tracks []*jobTrack) []float64 {
	var out []float64
	for _, j := range tracks {
		if !j.shed() && !j.finished.IsZero() {
			out = append(out, j.latency())
		}
	}
	return out
}

func serviceLayers(f figures, tracks []*jobTrack, ctr counters) {
	var admit, wait, run, fleetRun, lag []float64
	var shed, failed int
	for _, j := range tracks {
		lag = append(lag, j.submitted.Sub(j.due).Seconds())
		admit = append(admit, j.admitted.Sub(j.submitted).Seconds())
		if j.shed() {
			shed++
			continue
		}
		if j.finished.IsZero() || j.state != service.StateDone {
			failed++
		}
		if j.finished.IsZero() {
			continue
		}
		wait = append(wait, j.running.Sub(j.admitted).Seconds())
		run = append(run, j.finished.Sub(j.running).Seconds())
		if j.plan.spec.Fleet > 0 {
			fleetRun = append(fleetRun, j.finished.Sub(j.running).Seconds())
		}
	}
	f["service.admit_s"] = median(admit)
	f["service.queue_wait_p90_s"] = percentile(wait, 0.9)
	f["service.run_p50_s"] = median(run)
	f["service.shed"] = float64(shed)
	f["service.failed"] = float64(failed)
	f["runstate.journal_records"] = float64(ctr["runstate_journal_records_total"])
	f["runstate.artifact_mib"] = float64(ctr["runstate_artifact_bytes_total"]) / mib
	f["fleet.workers_spawned"] = float64(ctr["fleet_workers_spawned_total"])
	f["fleet.leases_granted"] = float64(ctr["fleet_leases_granted_total"])
	f["fleet.redispatches"] = float64(ctr["fleet_redispatches_total"])
	f["fleet.job_run_p50_s"] = median(fleetRun)
	f["loadgen.lag_p90_s"] = percentile(lag, 0.9)
}
