package main

import (
	"math"
	"sync"
	"time"
)

// The benchmark host's speed drifts by 20% and more over seconds to
// minutes (other tenants share its cores and caches), which would bury a
// 10% regression. Every reported time is therefore normalized to a fixed
// reference speed: the benchmark runs a reference kernel — fixed work
// defined here, which the code under test can never change — just before
// and just after each block of measured work, and scales the block's
// times by refNominal over the mean of the two reference times. A program
// that gets slower still reads slower; a host that gets slower does not.

// refNominal is the reference kernel's time on the 2-core Xeon VM the
// bounds in BENCHMARK.json were measured on, so normalized times read as
// seconds on that host at its usual speed.
const refNominal = 0.25 // s

// refBlock is how much measured work runs between two reference runs.
const refBlock = 2 * time.Second

// refSink keeps the reference kernel from being optimised away.
var refSink float64

// refKernel is the reference work of one goroutine: a diode-equation
// Newton solve per point — exponentials and divisions, like the PV solve
// that dominates the simulator — plus a strided walk over a buffer larger
// than L2, like the lane state the steppers stream through.
func refKernel(buf []float64) float64 {
	acc := 0.0
	idx := 0
	for i := 0; i < 2_000_000; i++ {
		v := 0.5 + float64(i%997)*1e-4
		x := 1e-3
		for k := 0; k < 4; k++ {
			e := math.Exp((v + 2*x) / 0.05)
			f := 0.02 - x - 1e-12*(e-1) - v/1e4
			df := -1 - 1e-12*e*2/0.05
			x -= f / df
		}
		idx = (idx + 4099) & (len(buf) - 1)
		buf[idx] += x
		acc += buf[(idx*7)&(len(buf)-1)]
	}
	return acc
}

// refSeconds runs the reference kernel on two goroutines, the load the
// workloads put on the host, and returns the wall time.
func refSeconds() float64 {
	bufs := [2][]float64{make([]float64, 1<<20), make([]float64, 1<<20)} // 8 MiB each
	var sums [2]float64
	var wg sync.WaitGroup
	start := time.Now()
	for g := range bufs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = refKernel(bufs[g])
		}(g)
	}
	wg.Wait()
	refSink = sums[0] + sums[1]
	return time.Since(start).Seconds()
}
