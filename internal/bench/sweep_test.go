package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSweepRunsAllPoints(t *testing.T) {
	for _, width := range []int{1, 4} {
		r := &run{opts: Options{Parallel: width}}
		var ran atomic.Int64
		res, err := points(r, 100, func(i int) (int, error) {
			ran.Add(1)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 100 {
			t.Fatalf("width %d: ran %d points", width, ran.Load())
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("width %d: point %d = %d (slot scrambled)", width, i, v)
			}
		}
	}
}

func TestSweepFirstErrorByRegistrationOrder(t *testing.T) {
	// Points 3 and 7 fail; regardless of pool width or worker scheduling,
	// the reported error must be point 3's.
	for _, width := range []int{1, 4} {
		r := &run{opts: Options{Parallel: width}}
		_, err := points(r, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 3 failed" {
			t.Fatalf("width %d: err = %v, want point 3's", width, err)
		}
	}
}

func TestSweepRecoversPanics(t *testing.T) {
	for _, width := range []int{1, 4} {
		r := &run{opts: Options{Parallel: width}}
		_, err := points(r, 4, func(i int) (int, error) {
			if i == 2 {
				panic("post failed")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "post failed") {
			t.Fatalf("width %d: panic not converted: %v", width, err)
		}
	}
}

func TestSweepEmptyAndReuse(t *testing.T) {
	var sw Sweep
	if err := sw.Wait(); err != nil {
		t.Fatal(err)
	}
	sw.Go(func() error { return errors.New("boom") })
	if err := sw.Wait(); err == nil {
		t.Fatal("error swallowed")
	}
	// After Wait the task list is drained: a fresh Wait sees no tasks.
	if err := sw.Wait(); err != nil {
		t.Fatalf("reused sweep replayed old tasks: %v", err)
	}
}

// TestHarnessDeterminism is the harness-level determinism property: the
// same experiments rendered twice sequentially and once on a 4-wide pool
// must produce byte-identical reports.
func TestHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiments three times")
	}
	render := func(id string, parallel int) string {
		report, err := Run(id, 0.02, Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report.Render(&buf)
		return buf.String()
	}
	for _, id := range []string{"fig3", "fig12"} {
		first := render(id, 1)
		second := render(id, 1)
		if first != second {
			t.Fatalf("%s: two sequential runs differ", id)
		}
		parallel := render(id, 4)
		if parallel != first {
			t.Fatalf("%s: parallel run differs from sequential", id)
		}
	}
}
