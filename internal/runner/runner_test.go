package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chatty returns a job that writes several lines mentioning its id.
func chatty(id string, lines int) Job {
	return Job{ID: id, Run: func(w io.Writer) error {
		for l := 0; l < lines; l++ {
			fmt.Fprintf(w, "%s line %d\n", id, l)
		}
		return nil
	}}
}

func TestRunKeepsJobOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, chatty(fmt.Sprintf("job%02d", i), 3))
	}
	results := Run(jobs, 8)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.ID != jobs[i].ID {
			t.Errorf("result %d is %q, want %q", i, r.ID, jobs[i].ID)
		}
		if !strings.HasPrefix(string(r.Output), r.ID+" line 0\n") {
			t.Errorf("%s: output mixed up: %q", r.ID, r.Output)
		}
		if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.ID, r.Err)
		}
	}
}

// TestStreamBytesIdenticalAcrossWorkerCounts is the core determinism
// guarantee: the flushed byte stream must not depend on the worker count,
// even when jobs finish out of order.
func TestStreamBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 24)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
	}
	build := func() []Job {
		var jobs []Job
		for i := range delays {
			i := i
			jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Run: func(w io.Writer) error {
				time.Sleep(delays[i])
				fmt.Fprintf(w, "report %d\nsecond line %d\n", i, i)
				return nil
			}})
		}
		return jobs
	}
	outputs := make(map[int]string)
	for _, workers := range []int{1, 2, 8} {
		var buf bytes.Buffer
		if err := Stream(build(), workers, func(r Result) error {
			_, err := buf.Write(r.Output)
			return err
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs[workers] = buf.String()
	}
	if outputs[1] != outputs[2] || outputs[1] != outputs[8] {
		t.Fatalf("outputs differ across worker counts:\nj1:\n%s\nj8:\n%s", outputs[1], outputs[8])
	}
}

func TestRunReportsJobErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		chatty("ok", 1),
		{ID: "bad", Run: func(w io.Writer) error { fmt.Fprintln(w, "partial"); return boom }},
		chatty("after", 1),
	}
	results := Run(jobs, 2)
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("healthy jobs reported errors")
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("bad job error = %v, want boom", results[1].Err)
	}
	// A failing job does not stop the others.
	if results[2].Skipped || len(results[2].Output) == 0 {
		t.Error("job after the failure did not run")
	}
}

// TestStreamFlushErrorStopsScheduling: once a flush fails, only the jobs
// already in flight finish. Jobs past the first stopAfter+1 wait on a gate,
// so each worker holds at most one of them when the pool stops, and no
// other job may start. The stop flag Stream sets after the failing flush
// returns is internal, so the gate opens on a timer; it only has to outlast
// the two statements between that return and the flag. The last job has a
// high priority, so two or more workers start it first; it does not wait
// and adds one to the bound.
func TestStreamFlushErrorStopsScheduling(t *testing.T) {
	const n, stopAfter = 64, 3
	for _, workers := range []int{1, 2, 8} {
		var started atomic.Int32
		gate := make(chan struct{})
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(io.Writer) error {
				started.Add(1)
				if i > stopAfter && i < n-1 {
					<-gate
				}
				return nil
			}}
		}
		jobs[n-1].Priority = 1
		flushes := 0
		wantErr := errors.New("disk full")
		err := Stream(jobs, workers, func(r Result) error {
			flushes++
			if flushes > stopAfter {
				time.AfterFunc(50*time.Millisecond, func() { close(gate) })
				return wantErr
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: got %v, want flush error", workers, err)
		}
		if flushes != stopAfter+1 {
			t.Errorf("workers=%d: flush called %d times, want %d", workers, flushes, stopAfter+1)
		}
		if got, bound := int(started.Load()), stopAfter+2+workers; got > bound {
			t.Errorf("workers=%d: %d jobs started, at most %d may have (flushed, prioritized, in flight)", workers, got, bound)
		}
	}
}

// TestStreamDispatchesByPriority: on two or more workers the job with the
// highest priority starts first even when it is submitted last, while the
// flushed bytes keep submission order. Every light job waits until the
// heavy one has started, with a timeout, so plain submission order fails
// instead of hanging. With one worker the jobs start in submission order,
// priority or not, as a serial loop would run them.
func TestStreamDispatchesByPriority(t *testing.T) {
	const n = 12
	var want bytes.Buffer
	serial := make([]int, n)
	for i := range serial {
		serial[i] = i
		fmt.Fprintf(&want, "report j%02d\n", i)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		heavyStarted := make(chan struct{})
		var mu sync.Mutex
		var starts []int
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: fmt.Sprintf("j%02d", i), Run: func(w io.Writer) error {
				mu.Lock()
				starts = append(starts, i)
				mu.Unlock()
				switch {
				case i == n-1:
					close(heavyStarted)
				case workers > 1:
					select {
					case <-heavyStarted:
					case <-time.After(10 * time.Second):
						return errors.New("started before the heavy job")
					}
				}
				fmt.Fprintf(w, "report j%02d\n", i)
				return nil
			}}
		}
		jobs[n-1].Priority = 1
		var got bytes.Buffer
		err := Stream(jobs, workers, func(r Result) error {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			_, err := got.Write(r.Output)
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: flushed\n%s\nwant\n%s", workers, got.String(), want.String())
		}
		if workers == 1 && !slices.Equal(starts, serial) {
			t.Errorf("one worker started the jobs in order %v, want %v", starts, serial)
		}
	}
}

// TestDispatchOrder pins the claim order: descending priority, ties in
// submission order, and plain submission order for one worker.
func TestDispatchOrder(t *testing.T) {
	jobs := make([]Job, 7)
	for i, p := range []int{0, 2, 1, 2, 0, 1, -1} {
		jobs[i].Priority = p
	}
	for _, tc := range []struct {
		workers int
		want    []int
	}{
		{1, []int{0, 1, 2, 3, 4, 5, 6}},
		{2, []int{1, 3, 2, 5, 0, 4, 6}},
		{8, []int{1, 3, 2, 5, 0, 4, 6}},
	} {
		if got := dispatchOrder(jobs, tc.workers); !slices.Equal(got, tc.want) {
			t.Errorf("workers=%d: order %v, want %v", tc.workers, got, tc.want)
		}
	}
}

func TestRunClampsWorkerCount(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 100} {
		results := Run([]Job{chatty("only", 1)}, workers)
		if len(results) != 1 || results[0].Err != nil || results[0].Skipped {
			t.Errorf("workers=%d: bad result %+v", workers, results[0])
		}
	}
}

func TestRunRecordsElapsed(t *testing.T) {
	jobs := []Job{{ID: "sleepy", Run: func(io.Writer) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}}}
	r := Run(jobs, 1)[0]
	if r.Elapsed < 5*time.Millisecond {
		t.Errorf("elapsed %v, want >= 5ms", r.Elapsed)
	}
}

func TestStreamEmptyJobList(t *testing.T) {
	if err := Stream(nil, 4, func(Result) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty job list: %v", err)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 200
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
	// n <= 0 must be a no-op, not a panic.
	ForEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
	ForEach(-1, 4, func(int) { t.Fatal("fn called for n=-1") })
}

func TestForEachSpanCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 8, n + 1} {
			hits := make([]atomic.Int32, n)
			var calls atomic.Int32
			ForEachSpan(n, workers, func(lo, hi int) {
				calls.Add(1)
				if lo < 0 || lo >= hi || hi > n {
					t.Errorf("n=%d workers=%d: bad span [%d, %d)", n, workers, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d executed %d times", n, workers, i, got)
				}
			}
			if workers <= 1 && n > 0 && calls.Load() != 1 {
				t.Errorf("n=%d workers=%d: %d calls, want one fn(0, n)", n, workers, calls.Load())
			}
		}
	}
	ForEachSpan(0, 4, func(int, int) { t.Fatal("fn called for n=0") })
	ForEachSpan(-3, 4, func(int, int) { t.Fatal("fn called for n=-3") })
}

// TestForEachSpanRunsAroundAStalledSpan: the span at 0 blocks until a
// span from the rest of the first worker's even share, [1, n/workers), has
// run. The goroutine that claimed it is stuck there, so the run finishes
// only if the other goroutines take over that share; a fixed split into
// one span per worker hangs.
func TestForEachSpanRunsAroundAStalledSpan(t *testing.T) {
	const n = 1000
	for _, workers := range []int{2, 3, 8} {
		release := make(chan struct{})
		var once sync.Once
		hits := make([]atomic.Int32, n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ForEachSpan(n, workers, func(lo, hi int) {
				switch {
				case lo == 0:
					<-release
				case lo < n/workers:
					once.Do(func() { close(release) })
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			once.Do(func() { close(release) })
			t.Fatalf("workers=%d: the share of the goroutine stalled at span 0 never ran", workers)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}
