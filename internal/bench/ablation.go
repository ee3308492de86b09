package bench

import (
	"fmt"
	"math/rand"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// newDetRand returns a deterministic PRNG for benchmark address streams.
func newDetRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// MRScale reproduces Section II-B2's MR observation: with 10x the memory
// regions the 32 B access latency degrades on the order of 60% because the
// MR records no longer fit the metadata SRAM.
func (r *run) MRScale(scale float64) (*Report, error) {
	_ = scale
	tb := stats.NewTable("MR scalability: 32B write latency vs registered MR count")
	tb.Row("MRs", "latency (us)", "vs 16 MRs")
	nMRs := []int{16, 64, 160, 512}
	lats, err := points(r, len(nMRs), func(pi int) (float64, error) {
		nMR := nMRs[pi]
		env, err := r.newPair(1 << 22)
		if err != nil {
			return 0, err
		}
		mrs := make([]*verbs.MR, nMR)
		for i := range mrs {
			reg, err := env.cl.Machine(1).Alloc(1, 4096, 0)
			if err != nil {
				return 0, err
			}
			mrs[i] = env.ctxB.MustRegisterMR(reg)
		}
		// Round-robin over all MRs so the MR cache keeps churning, then
		// measure the average latency.
		var sum sim.Duration
		const probes = 256
		now := sim.Time(0)
		for i := 0; i < probes; i++ {
			target := mrs[i%nMR]
			c, err := env.qpA.PostSend(now, &verbs.SendWR{
				Opcode:     verbs.OpWrite,
				SGL:        []verbs.SGE{{Addr: env.mrA.Addr(), Length: 32, MR: env.mrA}},
				RemoteAddr: target.Addr(),
				RemoteKey:  target.RKey(),
			})
			if err != nil {
				return 0, err
			}
			if i >= probes/2 { // skip warmup
				sum += c.Done - now
			}
			now = c.Done + sim.Microsecond
		}
		return float64(sum) / float64(probes/2) / 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	base := lats[0]
	for i, nMR := range nMRs {
		lat := lats[i]
		tb.Row(fmt.Sprintf("%d", nMR), fmt.Sprintf("%.2f", lat), fmt.Sprintf("%+.0f%%", (lat/base-1)*100))
	}
	return &Report{
		ID:     "mrscale",
		Tables: []*stats.Table{tb},
		Notes:  []string{"paper II-B2: 10x MRs degrades 32B access latency by about 60%"},
	}, nil
}

// QPScale reproduces Section II-B2's connection observation (after Chen et
// al.): throughput degrades roughly 50% when the client count grows ~3x past
// the QP-context cache.
func (r *run) QPScale(scale float64) (*Report, error) {
	fig := stats.NewFigure("QP scalability: aggregate 32B write throughput vs client count", "clients", "throughput (MOPS)")
	h := horizon(scale, 5*sim.Millisecond)
	counts := []int{40, 80, 120, 160, 240}
	ms, err := points(r, len(counts), func(i int) (float64, error) {
		clients := counts[i]
		env, err := r.newPair(1 << 22)
		if err != nil {
			return 0, err
		}
		eng, ma, mb := r.pairEngine(env)
		for c := 0; c < clients; c++ {
			qp, _ := verbs.MustConnect(env.ctxA, 1, env.ctxB, 1, verbs.RC)
			wr := &verbs.SendWR{
				Opcode:     verbs.OpWrite,
				SGL:        []verbs.SGE{{Addr: env.mrA.Addr() + mem.Addr(c*64), Length: 32, MR: env.mrA}},
				RemoteAddr: env.mrB.Addr() + mem.Addr(c*64),
				RemoteKey:  env.mrB.RKey(),
			}
			eng.Add(&sim.Client{
				PostCost: 150,
				Window:   2,
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
	})
	if err != nil {
		return nil, err
	}
	for i, clients := range counts {
		fig.Line("aggregate").Add(float64(clients), ms[i])
	}
	return &Report{
		ID:      "qpscale",
		Figures: []*stats.Figure{fig},
		Notes:   []string{"paper II-B2 (after Chen et al.): ~50% throughput loss when clients grow from 40 to 120 (QP contexts spill from SRAM)"},
	}, nil
}

// AblationTranslationCache sweeps the SRAM translation-cache capacity and
// shows the random-access throughput tracking it (the design knob behind
// Figures 6a/b/d).
func (r *run) AblationTranslationCache(scale float64) (*Report, error) {
	fig := stats.NewFigure("Ablation: translation cache entries vs 32B random write throughput (64MB region)", "entries", "throughput (MOPS)")
	h := horizon(scale, 5*sim.Millisecond)
	entriesList := []int{0, 256, 1024, 4096, 16384}
	ms, err := points(r, len(entriesList), func(i int) (float64, error) {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		cfg.NIC.TranslationEntries = entriesList[i]
		return r.customPairThroughput(cfg, 64<<20, h)
	})
	if err != nil {
		return nil, err
	}
	for i, entries := range entriesList {
		fig.Line("rand-rand").Add(float64(entries), ms[i])
	}
	return &Report{
		ID:      "ablation-xlate",
		Figures: []*stats.Figure{fig},
		Notes:   []string{"16384 entries cover the whole 64MB region: random matches sequential; 0 disables the cache entirely"},
	}, nil
}

// AblationMMIOCost sweeps the doorbell MMIO cost, the constant whose
// amortization is Doorbell batching's whole value proposition.
func (r *run) AblationMMIOCost(scale float64) (*Report, error) {
	fig := stats.NewFigure("Ablation: MMIO cost vs small-write latency", "mmio(ns)", "latency (us)")
	_ = scale
	mmios := []int{100, 250, 500, 1000}
	lats, err := points(r, len(mmios), func(i int) (float64, error) {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		cfg.NIC.MMIOCost = sim.Duration(mmios[i])
		return r.customPlacementLatency(cfg, false)
	})
	if err != nil {
		return nil, err
	}
	for i, mmio := range mmios {
		fig.Line("32B write").Add(float64(mmio), lats[i])
	}
	return &Report{
		ID:      "ablation-mmio",
		Figures: []*stats.Figure{fig},
	}, nil
}

// AblationQPILatency sweeps the inter-socket hop cost and reports the
// worst-vs-best placement latency gap of Table III.
func (r *run) AblationQPILatency(scale float64) (*Report, error) {
	fig := stats.NewFigure("Ablation: QPI hop latency vs placement penalty", "qpi(ns)", "worst/best latency ratio")
	_ = scale
	qpis := []int{35, 70, 140, 280}
	ratios, err := points(r, len(qpis), func(i int) (float64, error) {
		cfg := cluster.DefaultConfig()
		cfg.Machines = 2
		cfg.Topo.QPILatency = sim.Duration(qpis[i])
		best, err := r.customPlacementLatency(cfg, false)
		if err != nil {
			return 0, err
		}
		worst, err := r.customPlacementLatency(cfg, true)
		if err != nil {
			return 0, err
		}
		return worst / best, nil
	})
	if err != nil {
		return nil, err
	}
	for i, qpi := range qpis {
		fig.Line("write").Add(float64(qpi), ratios[i])
	}
	return &Report{
		ID:      "ablation-qpi",
		Figures: []*stats.Figure{fig},
		Notes:   []string{"the paper's ~55% worst-case latency penalty scales directly with the interconnect hop cost"},
	}, nil
}

// customPairThroughput builds a pair on a custom cluster config and measures
// random 32B write throughput over the given remote region.
func (r *run) customPairThroughput(cfg cluster.Config, region int, h sim.Duration) (float64, error) {
	cl, err := r.newCluster(cfg, r.opts.Faults)
	if err != nil {
		return 0, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return 0, err
	}
	la, err := cl.Machine(0).Alloc(1, 1<<20, 0)
	if err != nil {
		return 0, err
	}
	ra, err := cl.Machine(1).Space().AllocSparse(1, region, 1<<20)
	if err != nil {
		return 0, err
	}
	mrA, mrB := ctxA.MustRegisterMR(la), ctxB.MustRegisterMR(ra)
	// Pre-warm the responder's translation cache over the whole region so
	// the sweep measures steady-state residency, not cold misses.
	for pg := 0; pg < region/mem.PageSize; pg++ {
		cl.Machine(1).NIC().Translate(mrB.Addr()+mem.Addr(pg*mem.PageSize), 8)
	}
	rng := newDetRand(3)
	res := measure(func(t sim.Time) sim.Time {
		off := rng.Intn(region-64) &^ 7
		c, err := qp.PostSend(t, &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr(), Length: 32, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(off),
			RemoteKey:  mrB.RKey(),
		})
		if err != nil {
			panic(err)
		}
		return c.Done
	}, 16, 150, h)
	return res.MOPS(), nil
}

// customPlacementLatency measures the warm 32B write latency on a custom
// config with best (NIC-socket) or worst (remote-socket) placement.
func (r *run) customPlacementLatency(cfg cluster.Config, worst bool) (float64, error) {
	cl, err := r.newCluster(cfg, r.opts.Faults)
	if err != nil {
		return 0, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return 0, err
	}
	sock := topo.SocketID(1) // both buffers on the NIC socket
	if worst {
		qp.BindCore(0)
		sock = 0
	}
	la, err := cl.Machine(0).Alloc(sock, 1<<16, 0)
	if err != nil {
		return 0, err
	}
	ra, err := cl.Machine(1).Alloc(sock, 1<<16, 0)
	if err != nil {
		return 0, err
	}
	mrA, mrB := ctxA.MustRegisterMR(la), ctxB.MustRegisterMR(ra)
	wr := &verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: mrA.Addr(), Length: 32, MR: mrA}},
		RemoteAddr: mrB.Addr(),
		RemoteKey:  mrB.RKey(),
	}
	if _, err := qp.PostSend(0, wr); err != nil {
		return 0, err
	}
	lat := sim.RunOnce(func(t sim.Time) sim.Time {
		c, err := qp.PostSend(t, wr)
		if err != nil {
			panic(err)
		}
		return c.Done
	}, sim.Millisecond)
	return lat.Micros(), nil
}
