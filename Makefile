GO ?= go

.PHONY: all build test race vet check crash smoke subsets-smoke snippets-smoke xlate-smoke service-race serve-smoke fleet-chaos bench bench-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# crash runs the crash-recovery suite under the race detector: journal
# append/recover, torn-tail and bit-flip fuzzing, atomic-writer
# semantics, and kill/resume byte-identity of the supervised pool.
crash:
	$(GO) test -race -run 'Journal|Recover|Atomic|Dir|Resume|Pool|Artifact|Torn' ./internal/runstate ./internal/workloads

# smoke is the journal round-trip check on the real harness: run a tiny
# characterize sweep journaled to a state dir, resume it, and require
# the byte-identical report.
smoke:
	rm -rf .smoke
	mkdir -p .smoke
	$(GO) run ./cmd/characterize -scale tiny -fig 3c -state-dir .smoke/state > .smoke/run1.out 2> .smoke/run1.err
	$(GO) run ./cmd/characterize -scale tiny -fig 3c -state-dir .smoke/state -resume > .smoke/run2.out 2> .smoke/run2.err
	cmp .smoke/run1.out .smoke/run2.out
	rm -rf .smoke

# subsets-smoke is the subset-selection golden gate: regenerate every
# subsets report at tiny scale and require it byte-identical to the
# committed results/subsets_tiny.txt. Selection is deterministic, so any
# change to projection, clustering, tie-breaks or BIC choice that moves
# a selected interval, a ratio or an error fails it. Progress goes to
# stderr; only the report is compared. A deliberate change to selection
# regenerates the file with the same command and commits it.
subsets-smoke:
	rm -rf .subsets-smoke
	mkdir -p .subsets-smoke
	$(GO) run ./cmd/subsets -scale tiny -fig all > .subsets-smoke/subsets_tiny.txt 2> .subsets-smoke/run.err
	cmp results/subsets_tiny.txt .subsets-smoke/subsets_tiny.txt
	rm -rf .subsets-smoke

# snippets-smoke is the parallel-replay equivalence gate on the real
# harness: simulate one application's selected subset twice — serially
# (per-interval fast-forwarding, one worker) and via captured interval
# snippets replayed on four workers — and require byte-identical
# stdout. Mode and timing narration go to stderr, so cmp proves the
# snippet path changes only wall time, never results.
snippets-smoke:
	rm -rf .snippets-smoke
	mkdir -p .snippets-smoke
	$(GO) run ./cmd/subsets -scale tiny -fig table3 -simulate -sim-mode serial -workers 1 -sim-apps cb-physics-ocean-surf > .snippets-smoke/serial.out 2> .snippets-smoke/serial.err
	$(GO) run ./cmd/subsets -scale tiny -fig table3 -simulate -sim-mode snippets -workers 4 -sim-apps cb-physics-ocean-surf > .snippets-smoke/snippets.out 2> .snippets-smoke/snippets.err
	cmp .snippets-smoke/serial.out .snippets-smoke/snippets.out
	rm -rf .snippets-smoke

# xlate-smoke is the cross-ISA translation gate on the real harness,
# run under the race detector: characterize the seeded workloads
# natively (GEN end to end), then again with every program retargeted
# to the GENX dialect at CreateProgram and every compiled binary
# translated back to GEN below the instrumentation layer, and require
# byte-identical reports — per-kernel profiles, instruction mixes, and
# SPI-derived figures included. The seeded workloads contain no W2, so
# the translation is a pure cross-dialect re-encode and any divergence
# is a translator or dialect-plumbing bug, never a legalization
# artifact.
#
# Characterize output is dialect-invariant, so that leg alone cannot
# tell translation from a dropped dialect. The second leg is
# dialect-sensitive: subsets reports read the native timings, which
# GENX issue costs move. It requires the -dialect genx report to differ
# from the native golden file, and to be byte-identical in-process and
# on a two-worker fleet — fleet workers re-execute with no flags, so
# this fails whenever the target does not reach them.
xlate-smoke:
	rm -rf .xlate-smoke
	mkdir -p .xlate-smoke
	$(GO) run -race ./cmd/characterize -scale tiny -fig all > .xlate-smoke/native.out 2> .xlate-smoke/native.err
	$(GO) run -race ./cmd/characterize -scale tiny -fig all -dialect genx -translate gen > .xlate-smoke/xlate.out 2> .xlate-smoke/xlate.err
	cmp .xlate-smoke/native.out .xlate-smoke/xlate.out
	$(GO) run ./cmd/subsets -scale tiny -fig all -dialect genx > .xlate-smoke/genx.out 2> .xlate-smoke/genx.err
	$(GO) run ./cmd/subsets -scale tiny -fig all -dialect genx -fleet 2 > .xlate-smoke/genx-fleet.out 2> .xlate-smoke/genx-fleet.err
	! cmp -s results/subsets_tiny.txt .xlate-smoke/genx.out
	cmp .xlate-smoke/genx.out .xlate-smoke/genx-fleet.out
	rm -rf .xlate-smoke

# service-race runs the profiling-service suite — queue/shed, retry and
# breaker chaos, drain ordering, and the SIGKILL crash-resume e2e — under
# the race detector on its own, so a service regression names itself
# before the full-tree race pass. (The full pass then reuses the cached
# result, so the split costs nothing.)
service-race:
	$(GO) test -race ./internal/service/...

# serve-smoke is the service health gate: gtpind -smoke starts the
# daemon on a loopback port, submits a tiny characterize job over HTTP,
# polls it to a digest-checked result, and drains — verifying /readyz
# flips to 503 while the listener is still serving.
serve-smoke:
	rm -rf .serve-smoke
	$(GO) run ./cmd/gtpind -smoke -state-dir .serve-smoke
	rm -rf .serve-smoke

# fleet-chaos is the distributed-sweep fault matrix: the fleet suite —
# coordinator/worker e2e with real SIGKILLed and frozen worker
# processes, lease fencing, poison quarantine, cross-process flock —
# under the race detector, once per fixed fault-schedule seed. Three
# seeds exercise three distinct kill/hang placements; each run asserts
# the merged report is byte-identical to an unfailed single-process
# sweep.
fleet-chaos:
	GTPIN_FLEET_SEED=1 $(GO) test -race -count=1 ./internal/fleet
	GTPIN_FLEET_SEED=7 $(GO) test -race -count=1 ./internal/fleet
	GTPIN_FLEET_SEED=1302 $(GO) test -race -count=1 ./internal/fleet

# check is the CI gate: static analysis, a full build, the service suite
# then the full test suite under the race detector (the chaos and
# crash-recovery suites must never panic or deadlock under -race), the
# distributed-fleet chaos matrix, the resume smoke test, the subsets
# golden gate, and the daemon smoke test.
check: vet build service-race race fleet-chaos crash smoke subsets-smoke snippets-smoke xlate-smoke serve-smoke

# bench runs the Go benchmark suites (instrumentation rewrite,
# interpreters, end-to-end sweep) and then the benchmark-regression
# harness: a multi-trial characterization sweep timed three ways — the
# pre-optimization baseline (serial, all caches off), the cached,
# sharded hot path, and the hot path again with the obs span tracer
# installed — all verified byte-identical and recorded in
# BENCH_sweep.json. The harness fails below 2x wall-clock speedup,
# above 5% observability overhead, or when detailed-interpreter
# throughput (detsim_mips) drops more than 10% below the committed
# baseline report (BENCH_sweep.json is checked in for exactly this
# reason; -require-detsim-prior makes a missing baseline a hard error
# instead of a silently skipped gate). The overhead gate compares
# median wall times over -overhead-reps repetitions, so one scheduler
# stall cannot flip it.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...
	$(GO) run ./cmd/bench -scale tiny -trials 3 -overhead-reps 5 -min-speedup 2 -max-obs-overhead 1.05 -min-detsim-ratio 0.9 -require-detsim-prior -out BENCH_sweep.json

# bench-smoke is the CI shape of bench: the edge-case regression tests
# and the observability layer under -race, the execution engine's
# differential fuzz + watchdog-parity + layering suite (short corpus),
# one-iteration benchmark runs (compile + execute checks), the
# regression harness with the wall-clock gates in warn-only mode
# (shared CI boxes make those ratios too noisy to fail a build on, but
# the breach still prints and the medians still land in the report)
# while still gating detailed-interpreter throughput at 10% regression
# against the committed BENCH_sweep.json baseline — -require-detsim-prior
# asserts the gate actually armed, so a lost baseline fails the build
# instead of silently skipping the comparison — and a tiny traced sweep
# whose -trace/-metrics artifacts are schema-validated by cmd/obscheck.
# The engine line carries the predecode differential fuzz (threaded-code
# loops vs the reference interpreter) under the race detector; the
# simpoint line does the same for k-means (shared-work, cycle-skipping
# clustering vs the reference Lloyd loop, seed corpus included).
bench-smoke:
	$(GO) test -race -run 'SurfaceBoundary|RingEntries|ImmediateBoundary|CachedRewrite|CacheKey|ByteFieldTruncation|HostileNames|ByteIdentical|Cache|Speedup' ./internal/gtpin ./internal/jit ./internal/export ./internal/workloads ./cmd/bench
	$(GO) test -race -short -run 'Differential|Predecode|WatchdogParity|Probe|BackendsContainNoDispatch' ./internal/engine
	$(GO) test -race -short -run 'MatchesReference|ReseedCycle' ./internal/simpoint
	$(GO) test -race ./internal/obs/...
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' ./...
	$(GO) run ./cmd/bench -scale tiny -trials 3 -overhead-reps 3 -max-obs-overhead 1.05 -obs-overhead-warn -min-detsim-ratio 0.9 -require-detsim-prior -out BENCH_sweep.json
	rm -rf .obs-smoke
	mkdir -p .obs-smoke
	$(GO) run ./cmd/characterize -scale tiny -fig 3c -trace .obs-smoke/trace.json -metrics .obs-smoke/metrics.json > .obs-smoke/run.out 2> .obs-smoke/run.err
	$(GO) run ./cmd/obscheck -trace .obs-smoke/trace.json -metrics .obs-smoke/metrics.json
	rm -rf .obs-smoke

clean:
	$(GO) clean ./...
	rm -rf .smoke .obs-smoke .serve-smoke .subsets-smoke .snippets-smoke .xlate-smoke
