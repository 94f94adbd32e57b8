package expt

// Shared parallel-sweep helper for the voltage-sweep drivers. Each sweep
// point is an independent solve against immutable models (see the
// thread-safety contract on Components), so the points are fanned out over
// the available cores and reassembled in index order — the resulting
// series bytes are identical to a serial loop regardless of parallelism.

import (
	"runtime"

	"repro/internal/runner"
)

// sweepPoint is one evaluated sample; ok=false drops it from the series,
// mirroring the `continue` branches of the former serial loops.
type sweepPoint struct {
	x, y float64
	ok   bool
}

// sweepXY evaluates fn at indices 0..n-1 on runner.ForEach, one worker per
// core, and assembles the accepted points into X/Y slices in index order.
// fn must be safe for concurrent calls; every fn used by the drivers only
// reads calibrated models.
func sweepXY(n int, fn func(k int) (x, y float64, ok bool)) (xs, ys []float64) {
	if n <= 0 {
		return nil, nil
	}
	pts := make([]sweepPoint, n)
	runner.ForEach(n, runtime.GOMAXPROCS(0), func(k int) {
		x, y, ok := fn(k)
		pts[k] = sweepPoint{x, y, ok}
	})
	xs = make([]float64, 0, n)
	ys = make([]float64, 0, n)
	for _, p := range pts {
		if p.ok {
			xs = append(xs, p.x)
			ys = append(ys, p.y)
		}
	}
	return xs, ys
}
