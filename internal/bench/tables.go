package bench

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Table02LocalSockets reproduces Table II: MLC-style idle latency and
// single-stream bandwidth for own-socket vs cross-socket DRAM access.
func (r *run) Table02LocalSockets(scale float64) (*Report, error) {
	_ = scale
	tp := topo.DefaultParams()
	tb := stats.NewTable("Table II: throughput/latency of local inter-socket access")
	tb.Row("Type", "Latency (ns)", "Bandwidth (GB/s)")
	own := tp.LocalAccessTime(topo.Read, topo.Rand, 0, false)
	cross := tp.LocalAccessTime(topo.Read, topo.Rand, 0, true)
	tb.Row("local socket", fmt.Sprintf("%d", int64(own)), fmt.Sprintf("%.2f", tp.DRAMBandwidthOwn/1e9))
	tb.Row("remote socket", fmt.Sprintf("%d", int64(cross)), fmt.Sprintf("%.2f", tp.DRAMBandwidthX/1e9))
	return &Report{
		ID:     "table2",
		Tables: []*stats.Table{tb},
		Notes:  []string{"paper: 92/162 ns and 3.70/2.27 GB/s"},
	}, nil
}

// placementCase measures read and write latency (sync) and throughput
// (window-pipelined) for one placement of {requester core, requester buffer,
// responder port binding, responder memory} relative to the NIC sockets.
func (r *run) placementCase(lCoreAlt, lMemAlt, rPortAlt, rMemAlt bool, h sim.Duration) (rLat, rThr, wLat, wThr float64, err error) {
	run := func(op verbs.Opcode, throughput bool) (float64, error) {
		env, err := r.newPair(1 << 22)
		if err != nil {
			return 0, err
		}
		// Requester side: NIC port 1 (socket 1) is "own".
		lCore := topo.SocketID(1)
		if lCoreAlt {
			lCore = 0
		}
		lSock := topo.SocketID(1)
		if lMemAlt {
			lSock = 0
		}
		// Responder side: bind the QP's remote end to port 0 for "alt";
		// memory is "own" when it matches the responder port's socket.
		rPort := 1
		if rPortAlt {
			rPort = 0
		}
		rSock := topo.SocketID(rPort)
		if rMemAlt {
			rSock = topo.SocketID(1 - rPort)
		}
		qpA, _, err := verbs.Connect(env.ctxA, 1, env.ctxB, rPort, verbs.RC)
		if err != nil {
			return 0, err
		}
		qpA.BindCore(lCore)
		lbuf := env.ctxA.MustRegisterMR(env.cl.Machine(0).MustAlloc(lSock, 1<<16, 0))
		rbuf := env.ctxB.MustRegisterMR(env.cl.Machine(1).MustAlloc(rSock, 1<<16, 0))
		wr := &verbs.SendWR{
			Opcode:     op,
			SGL:        []verbs.SGE{{Addr: lbuf.Addr(), Length: 32, MR: lbuf}},
			RemoteAddr: rbuf.Addr() + mem.Addr(64),
			RemoteKey:  rbuf.RKey(),
		}
		if _, err := qpA.PostSend(0, wr); err != nil { // warm caches
			return 0, err
		}
		if !throughput {
			lat := sim.RunOnce(func(t sim.Time) sim.Time {
				c, err := qpA.PostSend(t, wr)
				if err != nil {
					panic(err)
				}
				return c.Done
			}, 100*sim.Microsecond)
			return lat.Micros(), nil
		}
		res := measure(func(t sim.Time) sim.Time {
			c, err := qpA.PostSend(t, wr)
			if err != nil {
				panic(err)
			}
			return c.Done
		}, 16, 150, h)
		return res.MOPS(), nil
	}
	if rLat, err = run(verbs.OpRead, false); err != nil {
		return
	}
	if rThr, err = run(verbs.OpRead, true); err != nil {
		return
	}
	if wLat, err = run(verbs.OpWrite, false); err != nil {
		return
	}
	wThr, err = run(verbs.OpWrite, true)
	return
}

// Table03RemoteSockets reproduces Table III: the 4x4 placement matrix of
// {own,alt} core x {own,alt} memory on the requester side against the same
// on the responder side, each cell holding read lat/tput over write
// lat/tput.
func (r *run) Table03RemoteSockets(scale float64) (*Report, error) {
	h := horizon(scale, 5*sim.Millisecond)
	tb := stats.NewTable("Table III: throughput and latency of remote inter-socket access (read us/MOPS over write us/MOPS)")
	tb.Row("local \\ remote", "port1+matched mem", "port1+alt mem", "port0+matched mem", "port0+alt mem")
	type placement struct{ lc, lm, rp, rm bool }
	var cases []placement
	for _, lc := range []bool{false, true} {
		for _, lm := range []bool{false, true} {
			for _, rp := range []bool{false, true} {
				for _, rm := range []bool{false, true} {
					cases = append(cases, placement{lc, lm, rp, rm})
				}
			}
		}
	}
	type caseResult struct{ rLat, rThr, wLat, wThr float64 }
	res, err := points(r, len(cases), func(i int) (caseResult, error) {
		c := cases[i]
		rLat, rThr, wLat, wThr, err := r.placementCase(c.lc, c.lm, c.rp, c.rm, h)
		return caseResult{rLat, rThr, wLat, wThr}, err
	})
	if err != nil {
		return nil, err
	}
	var bestW, worstW float64
	for i, c := range cases {
		if !c.lc && !c.lm && !c.rp && !c.rm {
			bestW = res[i].wThr
		}
		if c.lc && c.lm && c.rp && c.rm {
			worstW = res[i].wThr
		}
	}
	for li := 0; li < 4; li++ {
		lc, lm := li >= 2, li%2 == 1
		cells := []string{pick(lc, "alt core", "own core") + "+" + pick(lm, "alt mem", "own mem")}
		for ri := 0; ri < 4; ri++ {
			c := res[li*4+ri]
			cells = append(cells, fmt.Sprintf("%.2f/%.2f %.2f/%.2f", c.rLat, c.rThr, c.wLat, c.wThr))
		}
		tb.Row(cells...)
	}
	return &Report{
		ID:     "table3",
		Tables: []*stats.Table{tb},
		Notes: []string{
			fmt.Sprintf("all-own write throughput %.2f vs all-alt %.2f MOPS (paper: worst case ~49%% lower throughput, ~55%% higher latency)", bestW, worstW),
		},
	}, nil
}

func pick(alt bool, a, b string) string {
	if alt {
		return a
	}
	return b
}
