// Package runner executes independent jobs on a bounded worker pool with
// deterministic, ordered output. Each job renders into its own buffer; the
// buffers are flushed strictly in submission order as soon as a job and all
// of its predecessors have finished, so a parallel run produces exactly the
// bytes of a serial one. It is the concurrency substrate of the hemsim and
// hemnode commands and of hemserved's batch endpoint (see DESIGN.md
// "Parallel experiment engine").
//
// Dispatch order is separate from flush order: a pool of two or more
// workers starts jobs by descending Job.Priority, ties in submission
// order, so the long poles a caller declares start first instead of
// leaving one worker to finish them alone. One worker runs the jobs in
// submission order, like a serial loop.
//
// Jobs must not share mutable state: the expt drivers satisfy this because
// every calibrated model (pv.Cell, cpu.Processor, reg.*) is immutable after
// construction and each driver builds its own transient state (capacitors,
// controllers) per call.
package runner

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// jobsTotal counts jobs executed by any pool in the process, on the
// shared default registry so hemserved's scrape surfaces it.
var jobsTotal = metrics.Default().Counter("runner_jobs_total",
	"Jobs executed by runner worker pools (skipped jobs excluded).")

// Job is one unit of work: an identifier plus a function that renders its
// report into w.
type Job struct {
	ID  string
	Run func(w io.Writer) error
	// Priority orders dispatch on a pool of two or more workers: jobs with
	// a higher Priority start first, and jobs of equal Priority start in
	// submission order. It never changes the order of the results or of
	// their flushes, and one worker ignores it.
	Priority int
}

// Result is the outcome of one job.
type Result struct {
	ID      string
	Output  []byte        // everything the job wrote
	Err     error         // the job's error, nil on success
	Elapsed time.Duration // the job's own wall-clock time
	Skipped bool          // true when the pool stopped before running it

	// Worker identifies the pool goroutine that ran the job (0-based);
	// -1 for skipped jobs. Worker identity is scheduling-dependent and
	// must never leak into deterministic output.
	Worker int
	// Queued is how long the job sat in the queue before a worker picked
	// it up (all jobs enqueue when the pool starts); wall-clock and, like
	// Worker, only for telemetry.
	Queued time.Duration
}

// Run executes the jobs on up to `workers` goroutines and returns one
// Result per job, in job order. workers < 1 is treated as 1. It always
// waits for every started job to finish.
func Run(jobs []Job, workers int) []Result {
	results := make([]Result, len(jobs))
	pool(jobs, workers, results, nil)
	return results
}

// Stream executes the jobs on up to `workers` goroutines and calls flush
// for each result in job order, as soon as the job and all its
// predecessors have completed. Two or more workers start the jobs in
// Priority order, so a high-priority job late in the list is buffered
// until its predecessors flush. With workers == 1 the jobs run in
// submission order and flush exactly like a serial loop: reordering one
// worker's queue cannot shorten its run, and would hold back every flush
// behind the long jobs.
//
// If flush returns an error, no further jobs are started, the pool drains,
// and that error is returned. Job errors do not stop the pool; they are
// reported through Result.Err so the caller decides.
func Stream(jobs []Job, workers int, flush func(Result) error) error {
	results := make([]Result, len(jobs))
	var stop atomic.Bool
	done := pool(jobs, workers, results, &stop)
	var flushErr error
	for i := range jobs {
		<-done[i]
		if flushErr != nil {
			continue // drain remaining completions without flushing
		}
		if err := flush(results[i]); err != nil {
			flushErr = err
			stop.Store(true) // skip jobs not yet started
		}
	}
	return flushErr
}

// ForEach runs fn(i) for every i in [0, n) on up to `workers` goroutines
// and returns when all calls have finished. It is the data-parallel
// counterpart of Run for callers that own their output ordering: fn writes
// only to its own index's state, and the caller reduces in index order
// after the barrier, which keeps the result independent of the worker
// count. Indices are claimed from an atomic counter, so the set of indices
// a given goroutine executes is scheduling-dependent — fn must not let
// that leak into deterministic output. workers < 1 is treated as 1.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachSpan runs fn(lo, hi) over disjoint spans that together cover
// [0, n) exactly once, on up to `workers` goroutines, and returns when all
// calls have finished. It is the grouped counterpart of ForEach for callers
// whose unit of work is a contiguous span rather than a single index — a
// population epoch advancing a span of lanes through one
// circuit.BatchStepper. The same contract applies: each span touches only
// its own indices' state, the caller reduces in index order after the
// barrier, and which goroutine runs which span is scheduling-dependent, so
// it must never leak into deterministic output.
//
// The spans are chunks of max(8, n/(64·workers)) indices, claimed in order
// from one shared counter: about 64 claims per goroutine, so a goroutine
// whose chunks ran cheap takes the next one instead of idling, and at the
// end none waits for more than the chunks still in progress elsewhere.
// workers < 1 is treated as 1, and one goroutine runs fn(0, n) once.
func ForEachSpan(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := max(8, n/(64*workers))
	ForEach((n+chunk-1)/chunk, workers, func(c int) {
		lo := c * chunk
		fn(lo, min(lo+chunk, n))
	})
}

// dispatchOrder returns the job indices in the order workers claim them:
// by descending Priority with ties in submission order, or submission
// order when one worker runs them all.
func dispatchOrder(jobs []Job, workers int) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	if workers > 1 {
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(jobs[b].Priority, jobs[a].Priority)
		})
	}
	return order
}

// pool fans the jobs out over the workers in dispatch order, filling
// results[i] and closing done[i] as each job completes. When results
// should be consumed as they arrive (Stream), the returned channels signal
// per-job completion; Run simply waits for all of them. A nil stop never
// skips.
func pool(jobs []Job, workers int, results []Result, stop *atomic.Bool) []chan struct{} {
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	idx := make(chan int, len(jobs))
	for _, i := range dispatchOrder(jobs, workers) {
		idx <- i
	}
	close(idx)
	poolStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				if stop != nil && stop.Load() {
					results[i] = Result{ID: jobs[i].ID, Skipped: true, Worker: -1}
					close(done[i])
					continue
				}
				start := time.Now()
				var buf bytes.Buffer
				err := jobs[i].Run(&buf)
				jobsTotal.Inc()
				results[i] = Result{
					ID:      jobs[i].ID,
					Output:  buf.Bytes(),
					Err:     err,
					Elapsed: time.Since(start),
					Worker:  worker,
					Queued:  start.Sub(poolStart),
				}
				close(done[i])
			}
		}(w)
	}
	if stop == nil {
		// Run: block until everything finished.
		wg.Wait()
	}
	return done
}
