package serve

// Response caching for deterministic renders. Registry reports and CSV
// exports are pure functions of the calibrated models, so the rendered
// bytes for an experiment ID never change within a process: an LRU of
// rendered responses turns the steady-state cost of GET /experiments/{id}
// into a map lookup, and a singleflight group collapses concurrent cold
// requests for the same ID into one render. Cached entries are the exact
// bytes of the cold render — handlers write them verbatim, never mutate
// them — which is what the byte-identity test in serve_test.go pins.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// lru is a mutex-guarded least-recently-used byte cache.
type lru struct {
	mu    sync.Mutex
	max   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type lruEntry struct {
	key string
	val []byte
}

func newLRU(max int) *lru {
	if max < 1 {
		max = 1
	}
	return &lru{max: max, items: make(map[string]*list.Element), order: list.New()}
}

func (c *lru) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lru) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup coalesces concurrent calls with the same key into one
// execution of fn (singleflight). Followers receive the leader's exact
// value and error, unless the leader's request ended before fn failed:
// fn runs under the leader's context, so that error is the leader's, and
// a follower whose own context is still live takes the flight over. A
// follower whose own context ends first returns at once with its error.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flight
}

type flight struct {
	done chan struct{} // closed once val, err and orphaned are set
	val  []byte
	err  error
	// orphaned reports that err came after the leader's context ended.
	orphaned bool
}

// do runs fn once per key across concurrent callers, each under its own
// request context ctx. shared is true for a caller that took the result
// of another caller's execution.
func (g *flightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flight)
	}
	for f, ok := g.calls[key]; ok; f, ok = g.calls[key] {
		g.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if !f.orphaned || ctx.Err() != nil {
			return f.val, true, f.err
		}
		g.mu.Lock()
	}
	f := &flight{done: make(chan struct{})}
	g.calls[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()
	f.orphaned = f.err != nil && ctx.Err() != nil
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// staleFactor sizes the last-known-good store relative to the LRU: it
// must outlive LRU eviction (or the degraded path would never have a copy
// the fresh cache lacks) but, with parameterised endpoints like
// /api/v1/fleet/{spec}, the key space is unbounded, so "eviction never
// touches it" is not an option either. Both stores hang off the same
// ReportCacheSize knob; the stale one just gets 8x the headroom, evicting
// least-recently-used entries deterministically like the front cache.
const staleFactor = 8

// renderCache is the serving stack's response cache: LRU in front,
// singleflight behind, instrumented for /metrics. Beside the LRU it keeps
// a last-known-good store that outlives front-cache eviction: when the
// gate is too saturated to re-render an evicted entry, the degraded-mode
// path serves the stale copy (with a Warning header) instead of a 503.
type renderCache struct {
	lru    *lru
	group  flightGroup
	hits   atomic.Uint64
	misses atomic.Uint64
	shared atomic.Uint64 // requests absorbed by an in-flight render

	stale *lru // bounded last-known-good store for the degraded path
}

func newRenderCache(size int) *renderCache {
	return &renderCache{lru: newLRU(size), stale: newLRU(staleFactor * size)}
}

// get returns the cached response for key, rendering (at most once per
// concurrent wave) and filling the cache on a miss. ctx is the calling
// request's context, the one render runs under. Errors are never cached:
// a transient failure does not poison the key.
func (c *renderCache) get(ctx context.Context, key string, render func() ([]byte, error)) ([]byte, error) {
	if b, ok := c.lru.get(key); ok {
		c.hits.Add(1)
		return b, nil
	}
	c.misses.Add(1)
	b, shared, err := c.group.do(ctx, key, func() ([]byte, error) {
		b, err := render()
		if err != nil {
			return nil, err
		}
		c.lru.put(key, b)
		c.putStale(key, b)
		return b, nil
	})
	if shared {
		c.shared.Add(1)
	}
	return b, err
}

// putStale records the last successful render for the degraded path.
func (c *renderCache) putStale(key string, b []byte) {
	c.stale.put(key, b)
}

// getStale returns the last-known-good render for key, if one succeeded
// recently enough to survive the stale store's own (8x larger) LRU bound.
func (c *renderCache) getStale(key string) ([]byte, bool) {
	return c.stale.get(key)
}

// staleLen reports the last-known-good store size for /metrics.
func (c *renderCache) staleLen() int {
	return c.stale.len()
}
