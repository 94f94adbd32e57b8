package pv

// Memoized solve layer. The Voc bisection, the MPP golden-section search
// and the I-V sweep tables are pure functions of the cell calibration and
// the irradiance, yet the experiment drivers re-solve them thousands of
// times (every figure re-derives the same full-sun MPP). This cache keys
// the solved values by (calibration, irradiance) so repeated solves —
// including solves from distinct *Cell instances with identical
// calibration, which is what expt.DefaultComponents produces — hit a
// lock-free lookup instead of re-iterating.
//
// Concurrency: the cache is a sync.Map and is safe for concurrent readers
// and writers; a Cell therefore remains safe to share across goroutines.
// Two goroutines racing on the same cold key both run the deterministic
// solver and store byte-identical values, so results never depend on the
// degree of parallelism.
//
// Memory: entries are a few words each and the key space in practice is
// tiny (a handful of calibrations x a handful of irradiance levels), but
// the store is capped defensively so adversarial sweeps over millions of
// distinct irradiances cannot grow it without bound; past the cap, solves
// still run, they just are not retained.

import (
	"sync"
	"sync/atomic"
)

// solveCacheCap bounds the number of retained entries across both caches.
const solveCacheCap = 1 << 14

// cellParams is the comparable calibration identity of a Cell.
type cellParams struct {
	iph float64
	i0  float64
	n   float64
	ns  int
	rs  float64
	rsh float64
}

func (c *Cell) params() cellParams {
	return cellParams{
		iph: c.photoCurrentFullSun,
		i0:  c.saturationCurrent,
		n:   c.idealityFactor,
		ns:  c.seriesCells,
		rs:  c.seriesResistance,
		rsh: c.shuntResistance,
	}
}

type solveKind uint8

const (
	kindVoc solveKind = iota
	kindMPP
)

type solveKey struct {
	cell cellParams
	irr  float64
	kind solveKind
}

type curveKey struct {
	cell cellParams
	irr  float64
	n    int
}

var (
	solveCache sync.Map // solveKey -> [2]float64
	curveCache sync.Map // curveKey -> []Point (never mutated after store)
	flights    sync.Map // solveKey | curveKey -> *flightCall

	cacheEntries   int64 // approximate population of both maps
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	cacheCoalesced atomic.Uint64
)

// flightCall is one in-progress cold solve that concurrent callers of the
// same key can wait on instead of re-running the solver (singleflight).
// val stays nil until the leader's compute returns; compute functions must
// never legitimately return nil (ours return [2]float64 boxes or non-empty
// slices), so followers use nil to detect a leader that died mid-solve.
type flightCall struct {
	wg  sync.WaitGroup
	val any
}

// coalesce computes the value for key at most once across concurrent
// callers: the first caller becomes the leader and runs compute; callers
// arriving while the leader is still solving block until its value lands
// and share it. The solvers are deterministic, so followers observe
// exactly the bytes the leader produced — coalescing never changes
// results, it only removes duplicate work under concurrent cold misses
// (a request storm on a fresh hemserved process hits each key once, and
// a fan-out of workers whose sweeps share curve keys hits each key once
// per process, not once per worker).
//
// Distinct keys never wait on each other, and a leader's nested solve
// (MPP's internal Voc lookup) uses a different key, so no cycle — and
// therefore no deadlock — is possible. The flight entry is removed and
// the waitgroup released on the leader's way out even if compute panics;
// followers then observe a nil val and recompute for themselves (same
// deterministic bytes), so one panicking caller can neither strand its
// followers on the waitgroup nor poison the key forever.
func coalesce(key any, compute func() any) any {
	call := &flightCall{}
	call.wg.Add(1)
	if c, loaded := flights.LoadOrStore(key, call); loaded {
		cacheCoalesced.Add(1)
		fc := c.(*flightCall)
		fc.wg.Wait()
		if fc.val == nil {
			// The leader panicked before producing a value (the panic
			// propagated to that caller). Solve independently.
			return compute()
		}
		return fc.val
	}
	defer func() {
		flights.Delete(key)
		call.wg.Done()
	}()
	call.val = compute()
	return call.val
}

// cachedSolve returns the memoized pair for the key, computing and storing
// it on a miss. Voc uses only the first element; MPP stores (voltage, power).
// Concurrent cold misses on one key run the solver once (see coalesce).
func cachedSolve(key solveKey, solve func() [2]float64) [2]float64 {
	if v, ok := solveCache.Load(key); ok {
		cacheHits.Add(1)
		return v.([2]float64)
	}
	cacheMisses.Add(1)
	v := coalesce(key, func() any {
		val := solve()
		storeBounded(&solveCache, key, val)
		return val
	})
	return v.([2]float64)
}

// cachedCurve returns a copy of the memoized sweep table, computing and
// storing it on a miss. Callers receive a fresh slice so the original
// Curve contract (a mutable result) is preserved; coalesced followers
// share the leader's flight value, so every path copies before returning.
func cachedCurve(key curveKey, build func() []Point) []Point {
	if v, ok := curveCache.Load(key); ok {
		cacheHits.Add(1)
		return append([]Point(nil), v.([]Point)...)
	}
	cacheMisses.Add(1)
	v := coalesce(key, func() any {
		pts := build()
		storeBounded(&curveCache, key, append([]Point(nil), pts...))
		return pts
	})
	return append([]Point(nil), v.([]Point)...)
}

// storeBounded stores unless the combined caches exceeded the cap.
func storeBounded(m *sync.Map, key, val any) {
	if atomic.LoadInt64(&cacheEntries) >= solveCacheCap {
		return
	}
	if _, loaded := m.LoadOrStore(key, val); !loaded {
		atomic.AddInt64(&cacheEntries, 1)
	}
}

// CacheStats reports the cumulative hit/miss counters of the solve cache,
// for observability in long-running services and in benchmarks.
func CacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// CacheCoalesced reports how many cold solves were absorbed by an
// already-in-flight computation of the same key (singleflight followers).
func CacheCoalesced() uint64 {
	return cacheCoalesced.Load()
}

// resetSolveCache empties the cache and counters (test hook).
func resetSolveCache() {
	solveCache.Range(func(k, _ any) bool { solveCache.Delete(k); return true })
	curveCache.Range(func(k, _ any) bool { curveCache.Delete(k); return true })
	atomic.StoreInt64(&cacheEntries, 0)
	cacheHits.Store(0)
	cacheMisses.Store(0)
	cacheCoalesced.Store(0)
}
