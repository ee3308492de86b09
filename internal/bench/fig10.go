package bench

import (
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// lockCluster builds n client machines plus one home machine for the lock
// word / counter / RPC server.
type lockCluster struct {
	cl     *cluster.Cluster
	home   *verbs.Context
	homeMR *verbs.MR
	ctxs   []*verbs.Context
	qps    []*verbs.QP
	scrs   []*verbs.MR
}

func (r *run) newLockCluster(n int) (*lockCluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = n + 1
	cl, err := r.newCluster(cfg, r.opts.Faults)
	if err != nil {
		return nil, err
	}
	lc := &lockCluster{cl: cl, home: verbs.NewContext(cl.Machine(0))}
	hm, err := cl.Machine(0).Alloc(1, 4096, 0)
	if err != nil {
		return nil, err
	}
	lc.homeMR = lc.home.MustRegisterMR(hm)
	for i := 0; i < n; i++ {
		ctx := verbs.NewContext(cl.Machine(i + 1))
		qp, _, err := verbs.Connect(ctx, 1, lc.home, 1, verbs.RC)
		if err != nil {
			return nil, err
		}
		sr, err := cl.Machine(i+1).Alloc(1, 4096, 0)
		if err != nil {
			return nil, err
		}
		lc.ctxs = append(lc.ctxs, ctx)
		lc.qps = append(lc.qps, qp)
		lc.scrs = append(lc.scrs, ctx.MustRegisterMR(sr))
	}
	return lc, nil
}

// remoteLockMOPS measures aggregate lock+unlock cycles per second.
func (r *run) remoteLockMOPS(n int, backoff *core.BackoffConfig, h sim.Duration) (float64, error) {
	lc, err := r.newLockCluster(n)
	if err != nil {
		return 0, err
	}
	state := core.NewLockState()
	eng := lc.cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < n; i++ {
		lock, err := core.NewRemoteLock(state, lc.qps[i],
			verbs.SGE{Addr: lc.scrs[i].Addr(), Length: 8, MR: lc.scrs[i]},
			lc.homeMR, lc.homeMR.Addr(), i, backoff)
		if err != nil {
			return 0, err
		}
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				at, err := lock.Acquire(post)
				if err != nil {
					panic(err)
				}
				rt, err := lock.Release(at)
				if err != nil {
					panic(err)
				}
				return rt
			},
		}, lc.cl.Machine(i+1), lc.cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}

// localLockMOPS measures the GCC-builtin local spinlock baseline.
func localLockMOPS(n int, h sim.Duration) float64 {
	tp := topo.DefaultParams()
	state := core.NewLockState()
	line := core.NewLocalLockLine()
	var clients []*sim.Client
	for i := 0; i < n; i++ {
		lock := core.NewLocalLock(state, line, tp, i, nil)
		clients = append(clients, &sim.Client{
			PostCost: 4,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				at := lock.Acquire(post)
				return lock.Release(at)
			},
		})
	}
	return sim.RunClosedLoop(clients, h).MOPS()
}

// rpcLockMOPS measures the channel-semantic lock baseline.
func (r *run) rpcLockMOPS(n int, h sim.Duration) (float64, error) {
	lc, err := r.newLockCluster(n)
	if err != nil {
		return 0, err
	}
	srv, err := core.NewRPCServer(lc.home, lc.homeMR, 750)
	if err != nil {
		return 0, err
	}
	state := core.NewLockState()
	eng := lc.cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < n; i++ {
		rc, err := srv.NewRPCClient(lc.ctxs[i], 1, 1, lc.scrs[i])
		if err != nil {
			return 0, err
		}
		lock := core.NewRPCLock(state, rc, i)
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				at, err := lock.Acquire(post)
				if err != nil {
					panic(err)
				}
				rt, err := lock.Release(at)
				if err != nil {
					panic(err)
				}
				return rt
			},
		}, lc.cl.Machine(i+1), lc.cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}

// Fig10aSpinlock reproduces Figure 10(a): local vs remote vs RPC spinlocks
// over thread count, plus the exponential back-off variant of the remote
// lock.
func (r *run) Fig10aSpinlock(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 10a: spinlock throughput (lock+unlock cycles)", "threads", "throughput (MOPS)")
	h := horizon(scale, 10*sim.Millisecond)
	bo := core.DefaultBackoff()
	threads := []int{1, 2, 4, 6, 8, 10, 12, 14}
	variants := []struct {
		label string
		run   func(n int) (float64, error)
	}{
		{"Local", func(n int) (float64, error) { return localLockMOPS(n, h), nil }},
		{"Remote", func(n int) (float64, error) { return r.remoteLockMOPS(n, nil, h) }},
		{"Remote(backoff)", func(n int) (float64, error) { return r.remoteLockMOPS(n, &bo, h) }},
		{"RPC-based", func(n int) (float64, error) { return r.rpcLockMOPS(n, h) }},
	}
	ms, err := points(r, len(threads)*len(variants), func(i int) (float64, error) {
		return variants[i%len(variants)].run(threads[i/len(variants)])
	})
	if err != nil {
		return nil, err
	}
	for ti, n := range threads {
		for vi, v := range variants {
			fig.Line(v.label).Add(float64(n), ms[ti*len(variants)+vi])
		}
	}
	return &Report{
		ID:      "fig10a",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: local collapses to ~1.2% of its 1-thread peak; remote converges (~0.31-0.36 MOPS at 8 threads) retaining ~14%;",
			"remote beats RPC by 1.54-2.80x; with back-off the remote lock leads local and RPC at 14 threads",
		},
	}, nil
}

// localSequencerMOPS: all threads FAA one cache line.
func localSequencerMOPS(n int, h sim.Duration) float64 {
	tp := topo.DefaultParams()
	seqLocal := core.NewLocalSequencer(tp)
	var locals []*sim.Client
	for i := 0; i < n; i++ {
		i := i
		seqLocal.Register()
		locals = append(locals, &sim.Client{
			PostCost: 4,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				_, t := seqLocal.Next(post, i)
				return t
			},
		})
	}
	return sim.RunClosedLoop(locals, h).MOPS()
}

// remoteSequencerMOPS: FAA against the home machine.
func (r *run) remoteSequencerMOPS(n int, h sim.Duration) (float64, error) {
	lc, err := r.newLockCluster(n)
	if err != nil {
		return 0, err
	}
	eng := lc.cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < n; i++ {
		seq, err := core.NewRemoteSequencer(lc.qps[i],
			verbs.SGE{Addr: lc.scrs[i].Addr(), Length: 8, MR: lc.scrs[i]},
			lc.homeMR, lc.homeMR.Addr())
		if err != nil {
			return 0, err
		}
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   4,
			Op: func(post sim.Time) sim.Time {
				_, t, err := seq.Next(post, 1)
				if err != nil {
					panic(err)
				}
				return t
			},
		}, lc.cl.Machine(i+1), lc.cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}

// rpcSequencerMOPS: counter behind a server.
func (r *run) rpcSequencerMOPS(n int, h sim.Duration) (float64, error) {
	lc, err := r.newLockCluster(n)
	if err != nil {
		return 0, err
	}
	srv, err := core.NewRPCServer(lc.home, lc.homeMR, 750)
	if err != nil {
		return 0, err
	}
	var counter uint64
	eng := lc.cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < n; i++ {
		rc, err := srv.NewRPCClient(lc.ctxs[i], 1, 1, lc.scrs[i])
		if err != nil {
			return 0, err
		}
		seq := core.NewRPCSequencer(rc, &counter)
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				_, t, err := seq.Next(post)
				if err != nil {
					panic(err)
				}
				return t
			},
		}, lc.cl.Machine(i+1), lc.cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}

// udRPCSequencerMOPS: the datagram-transport RPC sequencer.
func (r *run) udRPCSequencerMOPS(n int, h sim.Duration) (float64, error) {
	lc, err := r.newLockCluster(n)
	if err != nil {
		return 0, err
	}
	udSrv, err := core.NewUDRPCServer(lc.home, 1, lc.homeMR, 750)
	if err != nil {
		return 0, err
	}
	var udCounter uint64
	eng := lc.cl.NewEngine(r.opts.EngineWorkers)
	for i := 0; i < n; i++ {
		uc, err := udSrv.NewUDRPCClient(lc.ctxs[i], 1, lc.scrs[i])
		if err != nil {
			return 0, err
		}
		seq := core.NewRPCSequencer(uc, &udCounter)
		eng.Add(&sim.Client{
			PostCost: 150,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				_, t, err := seq.Next(post)
				if err != nil {
					panic(err)
				}
				return t
			},
		}, lc.cl.Machine(i+1), lc.cl.Machine(0))
	}
	return eng.Run(h).MOPS(), nil
}

// Fig10bSequencer reproduces Figure 10(b): local vs remote vs RPC
// sequencers over thread count.
func (r *run) Fig10bSequencer(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 10b: sequencer throughput", "threads", "throughput (MOPS)")
	h := horizon(scale, 10*sim.Millisecond)
	threads := []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	variants := []struct {
		label string
		run   func(n int) (float64, error)
	}{
		{"Local Sequencer", func(n int) (float64, error) { return localSequencerMOPS(n, h), nil }},
		{"Remote Sequencer", func(n int) (float64, error) { return r.remoteSequencerMOPS(n, h) }},
		{"RPC Sequencer", func(n int) (float64, error) { return r.rpcSequencerMOPS(n, h) }},
		// UD RPC: the Herd/FaSST-style datagram variant Section III-E cites
		// as the faster two-sided implementation.
		{"UD RPC Sequencer", func(n int) (float64, error) { return r.udRPCSequencerMOPS(n, h) }},
	}
	ms, err := points(r, len(threads)*len(variants), func(i int) (float64, error) {
		return variants[i%len(variants)].run(threads[i/len(variants)])
	})
	if err != nil {
		return nil, err
	}
	for ti, n := range threads {
		for vi, v := range variants {
			fig.Line(v.label).Add(float64(n), ms[ti*len(variants)+vi])
		}
	}
	return &Report{
		ID:      "fig10b",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: remote sequencer stable ~2.6 MOPS beyond 5 threads, 1.87-2.25x the RPC sequencer; local starts ~100 MOPS and degrades under contention",
			"extension: the UD RPC series is the Kalia et al. datagram design III-E credits with outrunning connected-transport RPC",
		},
	}, nil
}
