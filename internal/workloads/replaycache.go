package workloads

import (
	"fmt"
	"sync"

	"gtpin/internal/cofluent"
	"gtpin/internal/faults"
	"gtpin/internal/gtpin"
)

// ReplayCacheStats reports a cache's hit/miss history. Hits/Misses
// count the instrumented-replay phase; NativeHits/NativeMisses count
// the native (timed) phase, which is memoizable for clean units because
// trial seeds only perturb its reported timings, never its execution.
type ReplayCacheStats struct {
	Hits         uint64
	Misses       uint64
	Entries      int
	NativeHits   uint64
	NativeMisses uint64
}

// ReplayCache memoizes the instrumented-replay phase of the profiling
// pipeline across sweep units that differ only in trial seed. The
// replay runs on an unjittered device — trial seeds perturb only the
// native phase's timings — so its invocation counts, static kernel
// shapes, and injected-fault tallies are a pure function of
// (application, scale, device config, fault model). A multi-trial
// sweep otherwise re-instruments and re-executes an identical replay
// once per trial; the cache collapses those to one execution whose
// GT-Pin state every trial's profile join shares read-only. Artifacts
// stay byte-identical to uncached runs because the memoized result is
// exactly what each trial would have recomputed.
type ReplayCache struct {
	mu        sync.Mutex
	entries   map[string]replayEntry
	natives   map[string]*nativeEntry
	hits      uint64
	misses    uint64
	natHits   uint64
	natMisses uint64
}

type replayEntry struct {
	g     *gtpin.GTPin
	stats faults.Stats
}

// nativeEntry is one memoized native phase: the built application, its
// replayable recording, and the tracer of an UNJITTERED run — per-trial
// timings are synthesized from it with Tracer.PerturbTimes. All three
// are shared read-only across trials.
type nativeEntry struct {
	app    *App
	rec    *cofluent.Recording
	tracer *cofluent.Tracer
}

// NewReplayCache creates an empty cache.
func NewReplayCache() *ReplayCache {
	return &ReplayCache{
		entries: make(map[string]replayEntry),
		natives: make(map[string]*nativeEntry),
	}
}

// Stats snapshots the cache counters.
func (rc *ReplayCache) Stats() ReplayCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ReplayCacheStats{
		Hits: rc.hits, Misses: rc.misses, Entries: len(rc.entries),
		NativeHits: rc.natHits, NativeMisses: rc.natMisses,
	}
}

// replayKey identifies one replay configuration. The trial seed is
// absent by design: it must never influence the replay phase, and the
// cache is what enforces that economy. A non-native ISA target is
// appended, so native keys are unchanged.
func replayKey(u Unit, fo *FaultOptions) string {
	key := fmt.Sprintf("%s|%+v|%+v|%s", u.Spec.Name, u.Cfg, u.Scale, faultSig(fo))
	if fo != nil && fo.Resilience != nil {
		key += fmt.Sprintf("|%+v", *fo.Resilience)
	}
	if !u.Target.IsZero() {
		key += "|" + u.Target.String()
	}
	return key
}

// do returns the cached replay for key, or runs f and caches its
// result. Failed replays are never cached, so supervised restarts
// re-execute from scratch. Concurrent shards may race to compute the
// same key; the first stored entry wins and the loser adopts it — both
// computations are deterministic and identical, the adoption only
// keeps pointer sharing canonical.
func (rc *ReplayCache) do(key string, f func() (*gtpin.GTPin, faults.Stats, error)) (*gtpin.GTPin, faults.Stats, error) {
	rc.mu.Lock()
	if e, ok := rc.entries[key]; ok {
		rc.hits++
		mReplayHits.Inc()
		rc.mu.Unlock()
		return e.g, e.stats, nil
	}
	rc.misses++
	mReplayMisses.Inc()
	rc.mu.Unlock()

	g, st, err := f()
	if err != nil {
		return nil, st, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.entries[key]; ok {
		return e.g, e.stats, nil
	}
	rc.entries[key] = replayEntry{g: g, stats: st}
	return g, st, nil
}

// doNative is do for the native phase, with the same error and race
// discipline.
func (rc *ReplayCache) doNative(key string, f func() (*nativeEntry, error)) (*nativeEntry, error) {
	rc.mu.Lock()
	if e, ok := rc.natives[key]; ok {
		rc.natHits++
		mNativeHits.Inc()
		rc.mu.Unlock()
		return e, nil
	}
	rc.natMisses++
	mNativeMisses.Inc()
	rc.mu.Unlock()

	e, err := f()
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if cached, ok := rc.natives[key]; ok {
		return cached, nil
	}
	rc.natives[key] = e
	return e, nil
}
