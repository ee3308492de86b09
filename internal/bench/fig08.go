package bench

import (
	"math/rand"

	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

// Fig08Consolidation reproduces Figure 8: 32 B random writes into 1 KB
// aligned blocks, native one-write-per-request vs IO consolidation with
// θ in {1, 2, 4, 8, 16}.
func (r *run) Fig08Consolidation(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 8: IO consolidation (32B random writes, 1KB blocks)", "theta", "throughput (MOPS)")
	h := horizon(scale, 10*sim.Millisecond)
	const blockSize = 1024
	const blocks = 16 // skewed workload: hot writes target a small block set
	data := make([]byte, 32)

	// theta=0 stands for the native path: every 32 B write is one RDMA write.
	thetas := []int{0, 1, 2, 4, 8, 16}
	ms, err := points(r, len(thetas), func(i int) (float64, error) {
		theta := thetas[i]
		env, err := r.newPair(1 << 22)
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(1))
		if theta == 0 {
			res := measure(func(t sim.Time) sim.Time {
				off := rng.Intn(blocks)*blockSize + (rng.Intn(blockSize-32) &^ 7)
				copy(env.mrA.Region().Bytes(), data)
				wrDone, err := writeAt(env, t, off, 32)
				if err != nil {
					panic(err)
				}
				return wrDone
			}, 16, 30, h)
			return res.MOPS(), nil
		}
		cons, err := core.NewConsolidator(core.ConsolidatorConfig{
			QP:         env.qpA,
			LocalMR:    env.staging,
			RemoteMR:   env.mrB,
			RemoteBase: env.mrB.Addr(),
			BlockSize:  blockSize,
			Theta:      theta,
			MaxBlocks:  blocks,
		})
		if err != nil {
			return 0, err
		}
		res := measure(func(t sim.Time) sim.Time {
			off := rng.Intn(blocks)*blockSize + (rng.Intn(blockSize-32) &^ 7)
			done, err := cons.Write(t, off, data)
			if err != nil {
				panic(err)
			}
			return done
		}, 16, 30, h)
		return res.MOPS(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, theta := range thetas {
		fig.Line("IO consolidation").Add(float64(theta), ms[i])
	}
	return &Report{
		ID:      "fig8",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"x=0 is the native access path; paper: 7.49x over native at theta=16",
		},
	}, nil
}

// writeAt posts one plain RDMA write of size bytes at the given remote
// offset.
func writeAt(env *pairEnv, t sim.Time, off, size int) (sim.Time, error) {
	c, err := env.qpA.PostSend(t, &verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: env.mrA.Addr(), Length: size, MR: env.mrA}},
		RemoteAddr: env.mrB.Addr() + mem.Addr(off),
		RemoteKey:  env.mrB.RKey(),
	})
	if err != nil {
		return 0, err
	}
	return c.Done, nil
}
