package bench

import (
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

// fig1Sizes are the payload sizes of Figure 1 (2 B to 8 KB).
var fig1Sizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Fig01PacketThrottling reproduces Figure 1: WRITE/READ latency and
// throughput over payload size on one QP, showing the packet-throttling
// plateau for small payloads and the bandwidth knee past ~2 KB.
func (r *run) Fig01PacketThrottling(scale float64) (*Report, error) {
	latFig := stats.NewFigure("Fig 1 (left): access latency vs payload size", "size(B)", "latency (us)")
	thrFig := stats.NewFigure("Fig 1 (right): throughput vs payload size", "size(B)", "throughput (MOPS)")
	h := horizon(scale, 20*sim.Millisecond)

	ops := []verbs.Opcode{verbs.OpWrite, verbs.OpRead}
	type point struct{ lat, mops float64 }
	res, err := points(r, len(ops)*len(fig1Sizes), func(i int) (point, error) {
		op, size := ops[i/len(fig1Sizes)], fig1Sizes[i%len(fig1Sizes)]
		env, err := r.newPair(1 << 22)
		if err != nil {
			return point{}, err
		}
		wr := &verbs.SendWR{
			Opcode:     op,
			SGL:        []verbs.SGE{{Addr: env.mrA.Addr(), Length: size, MR: env.mrA}},
			RemoteAddr: env.mrB.Addr(),
			RemoteKey:  env.mrB.RKey(),
		}
		// Warm metadata caches, then measure a synchronous latency.
		if _, err := env.qpA.PostSend(0, wr); err != nil {
			return point{}, err
		}
		lat := sim.RunOnce(func(t sim.Time) sim.Time {
			c, err := env.qpA.PostSend(t, wr)
			if err != nil {
				panic(err)
			}
			return c.Done
		}, sim.Millisecond)

		// Fresh environment for the closed-loop throughput run: reusing
		// the latency env would leak queued resource history into it.
		env, err = r.newPair(1 << 22)
		if err != nil {
			return point{}, err
		}
		wr.SGL[0].MR = env.mrA
		wr.SGL[0].Addr = env.mrA.Addr()
		wr.RemoteAddr = env.mrB.Addr()
		wr.RemoteKey = env.mrB.RKey()
		thr := measure(func(t sim.Time) sim.Time {
			c, err := env.qpA.PostSend(t, wr)
			if err != nil {
				panic(err)
			}
			return c.Done
		}, 16, 150, h)
		return point{lat: lat.Micros(), mops: thr.MOPS()}, nil
	})
	if err != nil {
		return nil, err
	}
	for oi, op := range ops {
		name := "Write"
		if op == verbs.OpRead {
			name = "Read"
		}
		for si, size := range fig1Sizes {
			p := res[oi*len(fig1Sizes)+si]
			latFig.Line(name).Add(float64(size), p.lat)
			thrFig.Line(name).Add(float64(size), p.mops)
		}
	}
	return &Report{
		ID:      "fig1",
		Figures: []*stats.Figure{latFig, thrFig},
		Notes: []string{
			fmt.Sprintf("paper: write/read latency 1.16/2.00us rising to 1.79/2.22us below 256B; throughput ~4.7/4.2 MOPS; knee past 2KB"),
		},
	}, nil
}
