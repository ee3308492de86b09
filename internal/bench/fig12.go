package bench

import (
	"fmt"

	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

// hashtableMOPS runs the disaggregated hashtable under a zipf(0.99) 100%
// write workload with the given number of front-ends (spread over 7 client
// machines x 2 sockets, as on the paper's 8-machine testbed).
func (r *run) hashtableMOPS(level hashtable.Level, theta, frontEnds int, hotFrac float64, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cluster.DefaultConfig(), r.opts.Faults)
	if err != nil {
		return 0, err
	}
	const keySpace = 1 << 14
	z, err := workload.NewZipf(keySpace, 0.99, 42)
	if err != nil {
		return 0, err
	}
	hot := z.HotSet(int(float64(keySpace) * hotFrac))
	cfg := hashtable.Config{
		Level:     level,
		KeySpace:  keySpace,
		ValueSize: 64,
		Theta:     theta,
		BlockBits: 4,
		HotKeys:   hot,
	}
	backend, err := hashtable.NewBackend(cl.Machine(0), cfg)
	if err != nil {
		return 0, err
	}
	val := make([]byte, 64)
	eng := cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < frontEnds; i++ {
		// Alternate sockets first so both ports carry traffic from two
		// front-ends onward, then spread over the seven client machines.
		m := cl.Machine(1 + (i/2)%7)
		socket := topo.SocketID(i % 2)
		fe, err := hashtable.NewFrontEnd(i, m, socket, backend)
		if err != nil {
			return 0, err
		}
		keys, err := workload.NewZipf(keySpace, 0.99, int64(1000+i))
		if err != nil {
			return 0, err
		}
		eng.Add(&sim.Client{
			PostCost: 200,
			Window:   4,
			Op: func(post sim.Time) sim.Time {
				d, err := fe.Put(post, keys.Next(), val)
				if err != nil {
					panic(err)
				}
				return d
			},
		}, m, cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}

// Fig12HashtableBreakdown reproduces Figure 12: throughput over front-end
// count for the cumulative optimization levels.
func (r *run) Fig12HashtableBreakdown(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 12: disaggregated hashtable optimization breakdown", "front-ends", "throughput (MOPS)")
	h := horizon(scale, 5*sim.Millisecond)
	const hotFrac = 1.0 / 8
	const maxFE = 14
	levels := []struct {
		label string
		level hashtable.Level
		theta int
	}{
		{"Basic HashTable", hashtable.Basic, 4},
		{"+Numa-OPT", hashtable.NUMA, 4},
		{"+Reorder-OPT (th=4)", hashtable.Reorder, 4},
		{"+Reorder-OPT (th=16)", hashtable.Reorder, 16},
	}
	ms, err := points(r, maxFE*len(levels), func(i int) (float64, error) {
		l := levels[i%len(levels)]
		return r.hashtableMOPS(l.level, l.theta, i/len(levels)+1, hotFrac, h)
	})
	if err != nil {
		return nil, err
	}
	for n := 1; n <= maxFE; n++ {
		for li, l := range levels {
			fig.Line(l.label).Add(float64(n), ms[(n-1)*len(levels)+li])
		}
	}
	return &Report{
		ID:      "fig12",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: NUMA adds ~14%; reorder peaks 1.85-2.70x over basic/NUMA (24.4 MOPS at 6 front-ends)",
		},
	}, nil
}

// Fig13HashtableConsolidation reproduces Figure 13: throughput over the hot
// key proportion (a) and the consolidation batch size (b).
func (r *run) Fig13HashtableConsolidation(scale float64) (*Report, error) {
	h := horizon(scale, 5*sim.Millisecond)
	const frontEnds = 6
	figA := stats.NewFigure("Fig 13a: throughput vs hot key proportion (theta=16)", "1/proportion", "throughput (MOPS)")
	figB := stats.NewFigure("Fig 13b: throughput vs batch size (hot=1/8)", "theta", "throughput (MOPS)")
	denoms := []int{4, 8, 16, 32}
	thetas := []int{1, 2, 4, 8, 16}
	ms, err := points(r, len(denoms)+len(thetas), func(i int) (float64, error) {
		if i < len(denoms) {
			return r.hashtableMOPS(hashtable.Reorder, 16, frontEnds, 1.0/float64(denoms[i]), h)
		}
		return r.hashtableMOPS(hashtable.Reorder, thetas[i-len(denoms)], frontEnds, 1.0/8, h)
	})
	if err != nil {
		return nil, err
	}
	for i, denom := range denoms {
		figA.Line("Consolidation-OPT").Add(float64(denom), ms[i])
	}
	for i, theta := range thetas {
		figB.Line("Consolidation-OPT").Add(float64(theta), ms[len(denoms)+i])
	}
	return &Report{
		ID:      "fig13",
		Figures: []*stats.Figure{figA, figB},
		Notes: []string{
			fmt.Sprintf("paper: only ~6 MOPS drop from 1/4 to 1/32 hot proportion; batch-size gains are sublinear"),
		},
	}, nil
}
