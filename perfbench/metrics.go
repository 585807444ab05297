package main

import (
	"syscall"
	"time"

	"gtpin/internal/obs"
)

// MetricDef names one reported figure. BENCHMARK.json at the repository
// root lists the same names; TestBenchmarkJSONMatches keeps the two in
// step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the figures every workload reports with --trace 0. Each
// is defined for all three workloads, and none can be zero:
//
//	op_p50_s      sweep and subsets: median wall time of one closed-loop
//	              batch; service: median job latency from its due time
//	cpu_per_op_s  process CPU time (user+system, fleet workers included)
//	              per operation
//	peak_rss_mib  the process's peak resident set
//	setup_s       median wall time of the workload's set-up
//
// Tail latency (job_latency_p90_s) is a per-layer figure: on a 2-core
// host its run-to-run spread is larger than any usable bound.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_s", "s", "lower"},
	{"cpu_per_op_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayer are the figures every workload reports with --trace 1; a
// layer a workload never enters reports 0. The first group is each
// workload's own headline figures; the rest split them by layer.
var perLayer = []MetricDef{
	{"failed_frac", "frac", "lower"},
	{"sweep_wall_s", "s", "lower"},
	{"select_wall_s", "s", "lower"},
	{"simulate_wall_s", "s", "lower"},
	{"detsim_mips", "MI/s", "higher"},
	{"subset_error_pct", "%", "lower"},
	{"subset_speedup_x", "x", "higher"},
	{"job_latency_p50_s", "s", "lower"},
	{"job_latency_p90_s", "s", "lower"},
	{"job_slo_miss_frac", "frac", "lower"},

	{"workloads.native_busy_s", "s", "lower"},
	{"engine.functional_mips", "MI/s", "higher"},
	{"cl.api_calls", "count", "lower"},
	{"gtpin.attach_busy_s", "s", "lower"},
	{"gtpin.attach_alloc_mib", "MiB", "lower"},
	{"gtpin.replay_busy_s", "s", "lower"},
	{"gtpin.rewrites", "count", "lower"},
	{"jit.cache_hit_ratio", "ratio", "higher"},
	{"workloads.replay_cache_hit_ratio", "ratio", "higher"},
	{"workloads.native_cache_hit_ratio", "ratio", "higher"},
	{"profile.build_busy_s", "s", "lower"},

	{"intervals.divide_busy_s", "s", "lower"},
	{"features.extract_busy_s", "s", "lower"},
	{"simpoint.run_busy_s", "s", "lower"},
	{"simpoint.runs", "count", "lower"},
	{"simpoint.points", "count", "lower"},
	{"selection.app_busy_max_s", "s", "lower"},

	{"detsim.capture_busy_s", "s", "lower"},
	{"detsim.snippet_mib", "MiB", "lower"},
	{"detsim.replay_busy_s", "s", "lower"},
	{"detsim.replay_parallel_eff", "ratio", "higher"},
	{"detsim.snippets", "count", "lower"},
	{"detsim.snippet_failed", "count", "lower"},
	{"cachesim.accesses", "count", "lower"},
	{"cachesim.hit_ratio", "ratio", "higher"},
	{"engine.predecode_hit_ratio", "ratio", "higher"},
	{"detsim.compile_cache_hit_ratio", "ratio", "higher"},

	{"service.admit_s", "s", "lower"},
	{"service.queue_wait_p90_s", "s", "lower"},
	{"service.run_p50_s", "s", "lower"},
	{"service.shed", "count", "lower"},
	{"service.failed", "count", "lower"},
	{"runstate.journal_records", "count", "lower"},
	{"runstate.artifact_mib", "MiB", "lower"},
	{"fleet.workers_spawned", "count", "lower"},
	{"fleet.leases_granted", "count", "lower"},
	{"fleet.redispatches", "count", "lower"},
	{"fleet.job_run_p50_s", "s", "lower"},

	{"loadgen.lag_p90_s", "s", "lower"},
	{"bench.trace_overhead", "x", "lower"},
	{"bench.spans", "count", "higher"},
}

// figures maps metric names to values; units come from the definitions.
type figures map[string]float64

const mib = 1 << 20

// counters is a snapshot of the process-wide obs counters.
type counters map[string]uint64

func snapCounters() counters { return obs.Default().Snapshot().Counters }

// delta returns after-before for every named counter.
func (before counters) delta(after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates another delta.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// hitRatio is hits/(hits+misses) for an obs counter pair named
// <prefix>_hits_total and <prefix>_misses_total.
func (c counters) hitRatio(prefix string) float64 {
	h := float64(c[prefix+"_hits_total"])
	return ratio(h, h+float64(c[prefix+"_misses_total"]))
}

// cpuTime is the user+system time of this process and of its reaped
// children (fleet workers).
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
}
