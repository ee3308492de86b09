package bench

import (
	"fmt"

	"rdmasem/internal/apps/join"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/workload"
)

// joinRun executes one distributed join configuration over relations of n
// tuples each.
func (r *run) joinRun(executors, batch int, numa bool, n int) (join.Result, error) {
	cl, err := r.newCluster(cluster.DefaultConfig(), r.opts.Faults)
	if err != nil {
		return join.Result{}, err
	}
	cfg := join.DefaultConfig()
	cfg.Executors = executors
	cfg.Batch = batch
	cfg.NUMA = numa
	inner := workload.Relation(n, uint64(n), 11)
	outer := workload.Relation(n, uint64(n), 13)
	return join.Run(cl, cfg, inner, outer)
}

// Fig16JoinBatching reproduces Figure 16: (a) execution time over batch size
// for 4/16 executors with and without NUMA awareness; (b) inverse execution
// time over executor count against the ideal-scaling line.
func (r *run) Fig16JoinBatching(scale float64) (*Report, error) {
	// The paper joins 16M-tuple relations; scale shrinks the input.
	n := int(float64(1<<22) * scale)
	if n < 1<<14 {
		n = 1 << 14
	}
	figA := stats.NewFigure(fmt.Sprintf("Fig 16a: join time vs batch size (%d tuples/relation)", n), "batch", "time (ms)")
	type cellA struct {
		label string
		theta int
		numa  bool
		batch int
	}
	var cellsA []cellA
	for _, theta := range []int{4, 16} {
		for _, numa := range []bool{true, false} {
			label := fmt.Sprintf("th=%d", theta)
			if numa {
				label = "(NUMA Affinity) " + label
			}
			for _, batch := range []int{1, 2, 4, 8, 16, 32} {
				cellsA = append(cellsA, cellA{label, theta, numa, batch})
			}
		}
	}
	msA, err := points(r, len(cellsA), func(i int) (float64, error) {
		c := cellsA[i]
		res, err := r.joinRun(c.theta, c.batch, c.numa, n)
		if err != nil {
			return 0, err
		}
		return res.Elapsed.Seconds() * 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cellsA {
		figA.Line(c.label).Add(float64(c.batch), msA[i])
	}

	figB := stats.NewFigure("Fig 16b: inverse join time vs executors", "executors", "1/time (1/s)")
	execsList := []int{1, 2, 4, 8, 12, 16}
	batchesB := []int{4, 16}
	msB, err := points(r, len(execsList)*len(batchesB), func(i int) (float64, error) {
		res, err := r.joinRun(execsList[i/len(batchesB)], batchesB[i%len(batchesB)], true, n)
		if err != nil {
			return 0, err
		}
		return 1.0 / res.Elapsed.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	var base float64 // single-executor inverse time for the ideal line
	for ei, execs := range execsList {
		for bi, batch := range batchesB {
			inv := msB[ei*len(batchesB)+bi]
			figB.Line(fmt.Sprintf("lambda=%d", batch)).Add(float64(execs), inv)
			if execs == 1 && batch == 4 {
				base = inv
			}
		}
		figB.Line("ideal").Add(float64(execs), base*float64(execs))
	}
	return &Report{
		ID:      "fig16",
		Figures: []*stats.Figure{figA, figB},
		Notes: []string{
			"paper: batching cuts up to 37% vs non-batching; NUMA awareness 12-30%; batch 16 lands within 22% of ideal scaling",
		},
	}, nil
}

// Fig17JoinScale reproduces Figure 17: execution time over data scale for
// the five configurations of the paper's breakdown.
func (r *run) Fig17JoinScale(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 17: join time vs data scale", "tuples", "time (ms)")
	base := int(float64(1<<20) * scale)
	if base < 1<<13 {
		base = 1 << 13
	}
	mults := []int{1, 2, 4} // the paper's 2^24..2^26 ratio ladder
	configs := []struct {
		label      string
		execs, lam int
		numa       bool
	}{
		{"Single Machine", 1, 1, true},
		{"th=4,lam=1 w/o NUMA", 4, 1, false},
		{"th=4,lam=1", 4, 1, true},
		{"th=4,lam=16", 4, 16, true},
		{"th=16,lam=16", 16, 16, true},
	}
	ms, err := points(r, len(mults)*len(configs), func(i int) (float64, error) {
		cfg := configs[i%len(configs)]
		res, err := r.joinRun(cfg.execs, cfg.lam, cfg.numa, base*mults[i/len(configs)])
		if err != nil {
			return 0, err
		}
		return res.Elapsed.Seconds() * 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mult := range mults {
		x := float64(base * mult)
		for ci, cfg := range configs {
			fig.Line(cfg.label).Add(x, ms[mi*len(configs)+ci])
		}
	}
	return &Report{
		ID:      "fig17",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: with all optimizations the join is 5.3x/10.3x faster than the single-machine/naive-distributed implementations; gaps stay constant as input grows 4x",
		},
	}, nil
}

// Fig18CPUCost reproduces Figure 18: requester CPU consumption of SP vs SGL
// batching across entry sizes (normalized per gigabyte shipped).
func (r *run) Fig18CPUCost(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 18: CPU cost of SP vs SGL per GB shipped", "entry(B)", "CPU seconds per GB")
	h := horizon(scale, 5*sim.Millisecond)
	strategies := []core.Strategy{core.SP, core.SGL}
	entries := []int{64, 256, 1024, 4096}
	ms, err := points(r, len(strategies)*len(entries), func(i int) (float64, error) {
		strategy, entry := strategies[i/len(entries)], entries[i%len(entries)]
		env, err := r.newPair(1 << 22)
		if err != nil {
			return 0, err
		}
		b, err := core.NewBatcher(strategy, env.qpA, env.mrA, env.staging, env.mrB)
		if err != nil {
			return 0, err
		}
		frags := make([]core.Fragment, 7) // the paper normalizes to 7 executors' batches
		for i := range frags {
			frags[i] = core.Fragment{Addr: env.mrA.Addr() + mem.Addr(i*2*entry), Length: entry}
		}
		var cpu sim.Duration
		var bytes int64
		measure(func(t sim.Time) sim.Time {
			res, err := b.WriteBatch(t, frags, env.mrB.Addr())
			if err != nil {
				panic(err)
			}
			cpu += res.CPU
			bytes += int64(entry * len(frags))
			return res.Done
		}, 2, 100, h)
		return cpu.Seconds() / (float64(bytes) / (1 << 30)), nil
	})
	if err != nil {
		return nil, err
	}
	for si, strategy := range strategies {
		for ei, entry := range entries {
			fig.Line(strategy.String()).Add(float64(entry), ms[si*len(entries)+ei])
		}
	}
	return &Report{
		ID:      "fig18",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: SGL consumes less CPU, ~67.2% less at 4096B entries (the NIC fetches the data, not the CPU)",
		},
	}, nil
}
