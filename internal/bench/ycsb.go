package bench

import (
	"math/rand"

	"rdmasem/internal/apps/hashtable"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

// YCSBMixed extends the paper's 100%-write hashtable evaluation (Fig 12)
// with YCSB-style mixed read/write ratios: A (50/50), B (95% reads) and the
// write-only workload the paper used, across the optimization levels.
func (r *run) YCSBMixed(scale float64) (*Report, error) {
	fig := stats.NewFigure("Extension: hashtable throughput vs read fraction (8 front-ends)", "read%", "throughput (MOPS)")
	h := horizon(scale, 5*sim.Millisecond)
	levels := []hashtable.Level{hashtable.NUMA, hashtable.Reorder}
	readPcts := []int{0, 50, 95}
	ms, err := points(r, len(levels)*len(readPcts), func(i int) (float64, error) {
		return r.ycsbMOPS(levels[i/len(readPcts)], readPcts[i%len(readPcts)], h)
	})
	if err != nil {
		return nil, err
	}
	for li, level := range levels {
		for ri, readPct := range readPcts {
			fig.Line(level.String()).Add(float64(readPct), ms[li*len(readPcts)+ri])
		}
	}
	return &Report{
		ID:      "ycsb",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"extension beyond the paper: consolidation keeps its edge under writes and serves hot reads from the shadow;",
			"hot reads are served from the front-end shadow, so the consolidated table keeps a lead even at 95% reads",
		},
	}, nil
}

// ycsbMOPS runs one optimization level at one read percentage on its own
// cluster and returns the aggregate throughput.
func (r *run) ycsbMOPS(level hashtable.Level, readPct int, h sim.Duration) (float64, error) {
	const keySpace = 1 << 14
	const frontEnds = 8
	cl, err := r.newCluster(cluster.DefaultConfig(), r.opts.Faults)
	if err != nil {
		return 0, err
	}
	z, err := workload.NewZipf(keySpace, 0.99, 42)
	if err != nil {
		return 0, err
	}
	backend, err := hashtable.NewBackend(cl.Machine(0), hashtable.Config{
		Level:     level,
		KeySpace:  keySpace,
		ValueSize: 64,
		Theta:     16,
		BlockBits: 4,
		HotKeys:   z.HotSet(keySpace / 8),
	})
	if err != nil {
		return 0, err
	}
	eng := cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < frontEnds; i++ {
		m := cl.Machine(1 + (i/2)%7)
		fe, err := hashtable.NewFrontEnd(i, m, topo.SocketID(i%2), backend)
		if err != nil {
			return 0, err
		}
		keys, err := workload.NewZipf(keySpace, 0.99, int64(1000+i))
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(int64(50 + i)))
		val := make([]byte, 64)
		out := make([]byte, 64)
		eng.Add(&sim.Client{
			PostCost: 200,
			Window:   4,
			Op: func(post sim.Time) sim.Time {
				k := keys.Next()
				var d sim.Time
				var err error
				if rng.Intn(100) < readPct {
					d, err = fe.Get(post, k, out)
				} else {
					d, err = fe.Put(post, k, val)
				}
				if err != nil {
					panic(err)
				}
				return d
			},
		}, m, cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}
