// Package search holds the repo's one-dimensional searches: golden section
// for the maximizer of a unimodal function, and bisection on a monotone
// predicate. The caller owns the bracket, tolerance and iteration cap; a
// search steps while hi-lo > tol and fewer than maxIter steps have run (so
// a NaN bracket stops at once), and returns the final bracket.
//
// A step rounds each product it adds explicitly, float64(x*y), which the Go
// spec says forbids fusing it into a multiply-add (as arm64 would), so the
// steps are the same on every architecture.
package search

// invPhi is the reciprocal of the golden ratio.
const invPhi = 0.6180339887498949

// GoldenMax narrows [lo, hi] around a maximizer of f. f is evaluated at the
// lower interior point, then the upper one, then once per step; a tie keeps
// the lower part. To minimize g, pass -g: -a < -b is a > b for every
// float64, NaN included.
func GoldenMax(lo, hi, tol float64, maxIter int, f func(float64) float64) (float64, float64) {
	x1 := hi - float64(invPhi*(hi-lo))
	x2 := lo + float64(invPhi*(hi-lo))
	f1, f2 := f(x1), f(x2)
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		if f1 < f2 {
			lo = x1
			x1, f1 = x2, f2
			x2 = lo + float64(invPhi*(hi-lo))
			f2 = f(x2)
		} else {
			hi = x2
			x2, f2 = x1, f1
			x1 = hi - float64(invPhi*(hi-lo))
			f1 = f(x1)
		}
	}
	return lo, hi
}

// Bisect halves [lo, hi] at its midpoint mid, which becomes the new lower
// end when keepLo(mid) holds (the sought point lies above it) and the new
// upper end otherwise.
func Bisect(lo, hi, tol float64, maxIter int, keepLo func(mid float64) bool) (float64, float64) {
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		mid := 0.5 * (lo + hi)
		if keepLo(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}
