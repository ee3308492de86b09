package bench

import (
	"rdmasem/internal/apps/dlog"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
)

// dlogMOPS measures aggregate appended records per second.
func (r *run) dlogMOPS(engines, batch int, numa bool, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cluster.DefaultConfig(), r.opts.Faults)
	if err != nil {
		return 0, err
	}
	cfg := dlog.DefaultConfig()
	cfg.Batch = batch
	cfg.NUMA = numa
	// 64MB holds the deepest sweep's records (~46 MOPS x 5ms x 64B x 2).
	cfg.LogBytes = 64 << 20
	l, err := dlog.NewLog(cl.Machine(0), cfg)
	if err != nil {
		return 0, err
	}
	eng := cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < engines; i++ {
		e, err := dlog.NewEngine(i, cl.Machine(1+i%7), topo.SocketID((i/7)%2), l)
		if err != nil {
			return 0, err
		}
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   2,
			Op: func(post sim.Time) sim.Time {
				_, done, err := e.AppendBatch(post)
				if err != nil {
					panic(err)
				}
				return done
			},
		}, cl.Machine(1+i%7), cl.Machine(0))
	}
	res := eng.Run(h)
	return float64(res.Completed) * float64(batch) / h.Seconds() / 1e6, nil
}

// Fig19DistributedLog reproduces Figure 19: appended records per second over
// the batch size for 4/7/14 transaction engines, with and without NUMA
// awareness.
func (r *run) Fig19DistributedLog(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 19: distributed log throughput", "batch", "throughput (MOPS, records)")
	h := horizon(scale, 5*sim.Millisecond)
	type cell struct {
		engines int
		numa    bool
		batch   int
	}
	var cells []cell
	for _, engines := range []int{4, 7, 14} {
		for _, numa := range []bool{false, true} {
			for _, batch := range []int{1, 2, 4, 8, 16, 32} {
				cells = append(cells, cell{engines, numa, batch})
			}
		}
	}
	ms, err := points(r, len(cells), func(i int) (float64, error) {
		c := cells[i]
		return r.dlogMOPS(c.engines, c.batch, c.numa, h)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		fig.Line(label19(c.engines, c.numa)).Add(float64(c.batch), ms[i])
	}
	return &Report{
		ID:      "fig19",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: 9.1x gain from batch 32 vs no batching at 7 engines; NUMA awareness lifts 14 engines from 15.5 to 17.7 MOPS (~14%)",
		},
	}, nil
}

func label19(engines int, numa bool) string {
	s := ""
	switch engines {
	case 4:
		s = "4 TX engines"
	case 7:
		s = "7 TX engines"
	default:
		s = "14 TX engines"
	}
	if !numa {
		s += " (*)"
	}
	return s
}
