package pv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCoalesceSingleExecution drives the singleflight primitive directly:
// followers that arrive while the leader is solving share one execution.
func TestCoalesceSingleExecution(t *testing.T) {
	resetSolveCache()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	key := solveKey{irr: 0.123, kind: kindVoc}
	var wg sync.WaitGroup
	results := make([]any, 6)
	launch := func(i int) {
		defer wg.Done()
		results[i] = coalesce(key, func() any {
			calls++
			close(leaderIn)
			<-release
			return [2]float64{1.25, 0}
		})
	}
	wg.Add(1)
	go launch(0)
	<-leaderIn
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go launch(i)
	}
	// Let the followers park on the in-flight call, then let it finish.
	for CacheCoalesced() < uint64(len(results)-1) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	for i, r := range results {
		if r.([2]float64) != [2]float64{1.25, 0} {
			t.Errorf("caller %d got %v", i, r)
		}
	}
	if got := CacheCoalesced(); got != uint64(len(results)-1) {
		t.Errorf("coalesced counter %d, want %d", got, len(results)-1)
	}
}

// TestCoalescePanicRecovery: a leader whose compute panics must release
// its followers (no deadlock) and clear the flight, so followers recompute
// for themselves and the key is not poisoned for later callers.
func TestCoalescePanicRecovery(t *testing.T) {
	resetSolveCache()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	key := solveKey{irr: 0.456, kind: kindVoc}
	want := [2]float64{0.75, 0}
	var followerCalls atomic.Int64
	var wg sync.WaitGroup
	results := make([]any, 4)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not propagate")
			}
		}()
		coalesce(key, func() any {
			close(leaderIn)
			<-release
			panic("solver died")
		})
	}()
	<-leaderIn
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = coalesce(key, func() any {
				followerCalls.Add(1)
				return want
			})
		}(i)
	}
	for CacheCoalesced() < uint64(len(results)) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, r := range results {
		if r.([2]float64) != want {
			t.Errorf("follower %d got %v after leader panic", i, r)
		}
	}
	if got := followerCalls.Load(); got != int64(len(results)) {
		t.Errorf("followers recomputed %d times, want %d (each for itself)", got, len(results))
	}
	// The key must be usable again: a fresh caller leads normally.
	calls := 0
	v := coalesce(key, func() any { calls++; return want })
	if calls != 1 || v.([2]float64) != want {
		t.Errorf("post-panic coalesce: calls=%d val=%v", calls, v)
	}
}

// TestBatchedCurveCoalescing: concurrent curve sweeps hitting one cold key
// must run the walking-state sweep once, with followers sharing the
// leader's table, so a fan-out of workers sweeping the same calibration
// does not multiply the cold-solve cost by the worker count.
func TestBatchedCurveCoalescing(t *testing.T) {
	resetSolveCache()
	c := NewCell()
	key := curveKey{cell: c.params(), irr: 0.41, n: 512}
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	computes := 0
	build := func() any {
		computes++
		close(leaderIn)
		<-release
		pts := c.curveUncached(key.irr, key.n)
		storeBounded(&curveCache, key, append([]Point(nil), pts...))
		return pts
	}
	const followers = 5
	var wg sync.WaitGroup
	results := make([]any, followers+1)
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = coalesce(key, build) }()
	<-leaderIn
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i] = coalesce(key, build) }(i)
	}
	for CacheCoalesced() < followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("batched sweep computed %d times, want 1", computes)
	}
	ref := results[0].([]Point)
	if len(ref) != key.n {
		t.Fatalf("leader's sweep has %d points, want %d", len(ref), key.n)
	}
	for i := 1; i < len(results); i++ {
		got := results[i].([]Point)
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("follower %d point %d = %+v, leader %+v", i, k, got[k], ref[k])
			}
		}
	}
	// The memoized copy the flight stored must serve later callers without
	// re-solving, and match the in-flight value bit for bit.
	cached := c.Curve(key.irr, key.n)
	if computes != 1 {
		t.Fatalf("cached read re-ran the sweep (%d computes)", computes)
	}
	for k := range ref {
		if cached[k] != ref[k] {
			t.Fatalf("cached point %d = %+v, leader %+v", k, cached[k], ref[k])
		}
	}
}

// TestCoalescedColdSolvesIdentical hammers one cold key from many
// goroutines; every caller must observe bit-identical solver output
// whether it led or followed.
func TestCoalescedColdSolvesIdentical(t *testing.T) {
	resetSolveCache()
	c := NewCell()
	const goroutines = 16
	var wg sync.WaitGroup
	var vals [goroutines][2]float64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, p := c.MPP(0.37)
			vals[g] = [2]float64{v, p}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if vals[g] != vals[0] {
			t.Fatalf("goroutine %d solved %v, goroutine 0 %v", g, vals[g], vals[0])
		}
	}
}
