package bench

import (
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// perEntryCPU is the CPU cost of producing/dispatching one entry in the
// vector-IO microbenchmarks.
const perEntryCPU sim.Duration = 60

// batchThroughput measures entries/s (in MOPS) for one strategy at one
// payload and batch size on a fresh one-to-one environment, with `clients`
// concurrent workers each on its own QP.
func (r *run) batchThroughput(strategy core.Strategy, size, batch, clients int, h sim.Duration) (float64, error) {
	env, err := r.newPair(1 << 22)
	if err != nil {
		return 0, err
	}
	eng, ma, mb := r.pairEngine(env)
	for c := 0; c < clients; c++ {
		qp := env.qpA
		if c > 0 {
			qp, _ = verbs.MustConnect(env.ctxA, 1, env.ctxB, 1, verbs.RC)
		}
		b, err := core.NewBatcher(strategy, qp, env.mrA, env.staging, env.mrB)
		if err != nil {
			return 0, err
		}
		// Fragments scattered through the local MR (arrival-order layout).
		frags := make([]core.Fragment, batch)
		span := env.mrA.Region().Size() / clients
		base := c * span
		for i := range frags {
			off := base + (i*2*size)%(span-size)
			frags[i] = core.Fragment{Addr: env.mrA.Addr() + mem.Addr(off), Length: size}
		}
		remote := env.mrB.Addr() + mem.Addr((c*batch*size*2)%(env.mrB.Region().Size()/2))
		eng.Add(&sim.Client{
			PostCost: perEntryCPU*sim.Duration(batch) + 50,
			Window:   2,
			Op: func(post sim.Time) sim.Time {
				res, err := b.WriteBatch(post, frags, remote)
				if err != nil {
					panic(err)
				}
				return res.Done
			},
		}, ma, mb)
	}
	res := eng.Run(h)
	return float64(res.Completed) * float64(batch) / h.Seconds() / 1e6, nil
}

// localVectorMOPS models the readv/writev local baseline of Figures 3/4: a
// tight syscall loop with no request-generation overhead. readv additionally
// stores each entry into the user buffer, so it pays both a load and a store
// per entry.
func localVectorMOPS(op topo.AccessOp, size, batch int) float64 {
	tp := topo.DefaultParams()
	per := tp.VectorIOTime(op, batch, size)
	if op == topo.Read {
		per += sim.Duration(batch) * tp.LocalAccessTime(topo.Write, topo.Seq, size, false)
	}
	return float64(batch) / per.Seconds() / 1e6
}

// Fig03BatchStrategies reproduces Figure 3: the three batch strategies over
// payload size at batch sizes 4 and 16, plus the local writev baseline.
func (r *run) Fig03BatchStrategies(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 3: batch strategies vs payload size", "size(B)", "throughput (MOPS, entries)")
	h := horizon(scale, 10*sim.Millisecond)
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	type cell struct {
		batch int
		s     core.Strategy
		size  int
	}
	var cells []cell
	for _, batch := range []int{4, 16} {
		for _, s := range []core.Strategy{core.Doorbell, core.SGL, core.SP} {
			for _, size := range sizes {
				cells = append(cells, cell{batch, s, size})
			}
		}
	}
	ms, err := points(r, len(cells), func(i int) (float64, error) {
		c := cells[i]
		return r.batchThroughput(c.s, c.size, c.batch, 1, h)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		fig.Line(c.s.String()+labelFor(c.batch)).Add(float64(c.size), ms[i])
	}
	for _, size := range sizes {
		fig.Line("Local-size-4").Add(float64(size), localVectorMOPS(topo.Write, size, 4))
	}
	return &Report{
		ID:      "fig3",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: flat below 128B; SGL/SP decline linearly with size; Doorbell stays flat and lowest",
		},
	}, nil
}

func labelFor(batch int) string {
	if batch == 4 {
		return "-size-4"
	}
	return "-size-16"
}

// Fig04BatchSizes reproduces Figure 4: throughput vs batch size 1-32 at 32 B
// payloads, including the local readv/writev baselines.
func (r *run) Fig04BatchSizes(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 4: batch size sweep at 32B payloads", "batch", "throughput (MOPS, entries)")
	h := horizon(scale, 10*sim.Millisecond)
	batches := []int{1, 2, 4, 8, 16, 32}
	strategies := []core.Strategy{core.Doorbell, core.SGL, core.SP}
	ms, err := points(r, len(strategies)*len(batches), func(i int) (float64, error) {
		return r.batchThroughput(strategies[i/len(batches)], 32, batches[i%len(batches)], 1, h)
	})
	if err != nil {
		return nil, err
	}
	for si, s := range strategies {
		for bi, b := range batches {
			fig.Line(s.String()).Add(float64(b), ms[si*len(batches)+bi])
		}
	}
	for _, b := range batches {
		fig.Line("Local-W").Add(float64(b), localVectorMOPS(topo.Write, 32, b))
		fig.Line("Local-R").Add(float64(b), localVectorMOPS(topo.Read, 32, b))
	}
	return &Report{
		ID:      "fig4",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: SP and SGL scale with batch size; Doorbell gains only ~153% from 1 to 32; SP reaches ~44%/117% of local write/read",
		},
	}, nil
}

// Fig05ThreadScaling reproduces Figure 5: per-thread throughput with 1-8
// threads, batch size 4, 32 B payloads.
func (r *run) Fig05ThreadScaling(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 5: per-thread throughput vs thread count (batch 4, 32B)", "threads", "per-thread throughput (MOPS)")
	h := horizon(scale, 10*sim.Millisecond)
	strategies := []core.Strategy{core.Doorbell, core.SGL, core.SP}
	const maxThreads = 8
	ms, err := points(r, len(strategies)*maxThreads, func(i int) (float64, error) {
		return r.batchThroughput(strategies[i/maxThreads], 32, 4, i%maxThreads+1, h)
	})
	if err != nil {
		return nil, err
	}
	for si, s := range strategies {
		for threads := 1; threads <= maxThreads; threads++ {
			m := ms[si*maxThreads+threads-1]
			fig.Line(s.String()+" (batch size=4)").Add(float64(threads), m/float64(threads))
		}
	}
	return &Report{
		ID:      "fig5",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: SP 1.05-1.20x SGL and 2.21-4.47x Doorbell; SGL loses ~25% from 1 to 8 threads, Doorbell ~60%",
		},
	}, nil
}
