package bench

import (
	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

// pairTrafficMOPS measures aggregate 64 B RC WRITE throughput over `pairs`
// disjoint machine pairs in one cluster. Pair p connects machine 2p to
// machine 2p+1 and never touches any other machine, so each pair is its own
// footprint-closed shard: with -engine-workers N the kernel dispatches up to
// N of them on concurrent host threads. The aggregate is a plain sum of
// independent closed loops, which is exactly why the result is byte-identical
// at every worker count — the property the engine golden pins.
func (r *run) pairTrafficMOPS(pairs int, h sim.Duration) (float64, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2 * pairs
	cl, err := r.newCluster(cfg, r.opts.Faults)
	if err != nil {
		return 0, err
	}
	eng := cl.NewEngine(r.opts.EngineWorkers)
	for p := 0; p < pairs; p++ {
		ma, mb := cl.Machine(2*p), cl.Machine(2*p+1)
		ctxA, ctxB := verbs.NewContext(ma), verbs.NewContext(mb)
		qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
		if err != nil {
			return 0, err
		}
		la, err := ma.Alloc(1, 1<<20, 0)
		if err != nil {
			return 0, err
		}
		ra, err := mb.Alloc(1, 1<<20, 0)
		if err != nil {
			return 0, err
		}
		mrA, mrB := ctxA.MustRegisterMR(la), ctxB.MustRegisterMR(ra)
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr() + mem.Addr(p*64), Length: 64, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(p*64),
			RemoteKey:  mrB.RKey(),
		}
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   4,
			Op: func(post sim.Time) sim.Time {
				comp, err := qp.PostSend(post, wr)
				if err != nil {
					panic(err)
				}
				return comp.Done
			},
		}, ma, mb)
	}
	return eng.Run(h).MOPS(), nil
}

// EngineDisjointPairs is the sharded-kernel scaling experiment: aggregate
// 64 B RC WRITE throughput over 1-8 disjoint machine pairs. Simulated
// throughput scales exactly linearly with the pair count (the pairs share
// nothing); what the experiment adds over the paper's figures is a workload
// whose shard graph is fully disconnected, so `rdmabench -exp engine
// -engine-workers N` turns host parallelism into wall-clock speedup while
// this golden pins the output bytes at every N.
func (r *run) EngineDisjointPairs(scale float64) (*Report, error) {
	fig := stats.NewFigure("Engine: aggregate 64B RC WRITE throughput over disjoint machine pairs", "pairs", "throughput (MOPS)")
	h := horizon(scale, 5*sim.Millisecond)
	pairCounts := []int{1, 2, 4, 8}
	ms, err := points(r, len(pairCounts), func(i int) (float64, error) {
		return r.pairTrafficMOPS(pairCounts[i], h)
	})
	if err != nil {
		return nil, err
	}
	for i, pairs := range pairCounts {
		fig.Line("aggregate").Add(float64(pairs), ms[i])
		fig.Line("per-pair").Add(float64(pairs), ms[i]/float64(pairs))
	}
	return &Report{
		ID:      "engine",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"each pair is one footprint-closed shard: -engine-workers N runs up to N pairs on concurrent host threads with byte-identical output",
			"per-pair throughput is flat by construction (pairs share no machine, NIC or fabric port)",
		},
	}, nil
}
