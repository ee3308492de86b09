package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Sweep collects independent measurement points and runs them on a worker
// pool of its width (< 2 runs them in order on the calling goroutine).
// Simulated clusters are hermetic (no package-level state anywhere under
// internal/), so points only race on wall-clock, never on model state:
// results are bit-identical at any width. Closures must be independent:
// each builds its own cluster and writes only to slots the caller gave it.
// Wait preserves determinism by reporting the first error in registration
// order, regardless of which worker hit it first; callers then assemble
// figures sequentially in the original loop order, so rendered reports are
// byte-identical at any pool width.
type Sweep struct {
	width int
	tasks []func() error
}

// Go registers one measurement point.
func (s *Sweep) Go(fn func() error) { s.tasks = append(s.tasks, fn) }

// Wait runs all registered points and returns the first error in
// registration order (nil if none). The Sweep is reusable afterwards.
func (s *Sweep) Wait() error {
	tasks := s.tasks
	s.tasks = nil
	n := min(s.width, len(tasks))
	if n <= 1 {
		for _, fn := range tasks {
			if err := runPoint(fn); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				errs[i] = runPoint(tasks[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPoint executes one point, converting a panic (the closed-loop drivers
// panic on post errors) into an error so one bad point cannot take down
// the whole pool.
func runPoint(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: sweep point panicked: %v", r)
		}
	}()
	return fn()
}

// points runs fn for every index in [0, n) on the run's sweep pool and
// returns the results in index order.
func points[T any](r *run, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	sw := Sweep{width: r.opts.Parallel}
	for i := 0; i < n; i++ {
		sw.Go(func() error {
			v, err := fn(i)
			out[i] = v
			return err
		})
	}
	if err := sw.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}
