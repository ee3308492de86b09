package main

import (
	"fmt"
	"time"

	"rdmasem/internal/apps/join"
	"rdmasem/internal/cluster"
	"rdmasem/internal/workload"
)

// join: apps/join.Run, the code behind the paper's Figures 16 and 17, on two
// seeded relations with a fresh 8-machine cluster per point. Its host time
// goes to each executor's receive rings (mem), chash build/probe and
// sim.Resource placement, all reached inside join.Run.

type joinPoint struct {
	executors, batch int
	numa             bool
}

// joinPoints is a subset of executors {4, 8, 16} x batch {1, 16} x NUMA.
var joinPoints = []joinPoint{
	{executors: 4, batch: 1, numa: true},
	{executors: 4, batch: 16, numa: false},
	{executors: 8, batch: 16, numa: true},
	{executors: 16, batch: 1, numa: false},
	{executors: 16, batch: 16, numa: true},
	{executors: 16, batch: 16, numa: false},
}

// joinTuples is the size of each relation; keys are uniform over as many
// values, so about one outer tuple matches each inner one.
const joinTuples = 1 << 17

// joinMatches is the benchmark's own count of matching (inner, outer) pairs.
func joinMatches(inner, outer []workload.Tuple) int64 {
	counts := make(map[uint64]int64, len(inner))
	for _, t := range inner {
		counts[t.Key]++
	}
	var n int64
	for _, t := range outer {
		n += counts[t.Key]
	}
	return n
}

func checkJoin(label string, got join.Result, want int64) error {
	if got.Matches != want {
		return fmt.Errorf("%s: join found %d matches, want %d", label, got.Matches, want)
	}
	return nil
}

// runJoin generates the relations once per sweep and joins them at every
// point.
func runJoin(s *sweep, seed int64) error {
	tr := s.spans
	t0 := time.Now()
	sp := tr.begin(spanWorkloadGen)
	inner := workload.Relation(joinTuples, joinTuples, 2*seed+1)
	outer := workload.Relation(joinTuples, joinTuples, 2*seed+2)
	tr.end(sp)
	s.setup += time.Since(t0)
	want := joinMatches(inner, outer)

	for pi, pt := range joinPoints {
		label := fmt.Sprintf("join/%d", pi)
		root := tr.startPoint(pi)
		t0 := time.Now()
		sp := tr.begin(spanClusterNew)
		cl, err := cluster.New(cluster.DefaultConfig())
		tr.end(sp)
		s.setup += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", label, err)
		}
		cfg := join.DefaultConfig()
		cfg.Executors, cfg.Batch, cfg.NUMA = pt.executors, pt.batch, pt.numa

		tm := s.timedStart()
		sp = tr.begin(spanJoinRun)
		res, err := join.Run(cl, cfg, inner, outer)
		tr.end(sp)
		s.timedStop(tm)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		s.record(label, res)
		s.virt.tuples += uint64(len(inner) + len(outer))
		if err := s.finishCluster(label, cl, res.Elapsed); err != nil {
			return err
		}
		if err := checkJoin(label, res, want); err != nil {
			return err
		}
	}
	return nil
}
