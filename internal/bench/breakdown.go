package bench

import (
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Breakdown regenerates Section III-D's end-to-end latency decomposition
// T(RNIC->Socket) + T(Network) + T(Socket->Memory) for a 64 B WRITE under
// each placement, using the per-operation stage tracer.
func (r *run) Breakdown(scale float64) (*Report, error) {
	_ = scale
	tb := stats.NewTable("III-D latency decomposition of a warm 64B WRITE (ns)")
	tb.Row("placement", "RNIC->Socket", "Network", "Socket->Memory", "CQE", "total")
	placements := []struct {
		label        string
		core         topo.SocketID
		lSock, rSock topo.SocketID
	}{
		{"own core, own mem, matched remote", 1, 1, 1},
		{"own core, alt local buffer", 1, 0, 1},
		{"alt core, own mem", 0, 1, 1},
		{"alt everything", 0, 0, 0},
	}
	type row struct{ rnic, net, s2m, cqe, total int64 }
	rows, err := points(r, len(placements), func(i int) (row, error) {
		p := placements[i]
		env, err := r.newPair(1 << 22)
		if err != nil {
			return row{}, err
		}
		qp, _, err := verbs.Connect(env.ctxA, 1, env.ctxB, 1, verbs.RC)
		if err != nil {
			return row{}, err
		}
		qp.BindCore(p.core)
		lbuf := env.ctxA.MustRegisterMR(env.cl.Machine(0).MustAlloc(p.lSock, 4096, 0))
		rbuf := env.ctxB.MustRegisterMR(env.cl.Machine(1).MustAlloc(p.rSock, 4096, 0))
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: lbuf.Addr(), Length: 64, MR: lbuf}},
			RemoteAddr: rbuf.Addr(),
			RemoteKey:  rbuf.RKey(),
		}
		if _, err := qp.PostSend(0, wr); err != nil { // warm metadata caches
			return row{}, err
		}
		_, tr, err := qp.PostSendTraced(100*sim.Microsecond, wr)
		if err != nil {
			return row{}, err
		}
		b := tr.Decompose()
		return row{int64(b.RNICToSocket), int64(b.Network), int64(b.SocketToMemory), int64(b.Completion), int64(tr.Total())}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range placements {
		row := rows[i]
		tb.Row(p.label,
			fmt.Sprintf("%d", row.rnic),
			fmt.Sprintf("%d", row.net),
			fmt.Sprintf("%d", row.s2m),
			fmt.Sprintf("%d", row.cqe),
			fmt.Sprintf("%d", row.total))
	}
	return &Report{
		ID:     "breakdown",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"paper III-D: for each remote memory access, end-to-end latency decomposes as T(RNIC->Socket) + T(Socket->Memory) + T(Network);",
			"placements off the NIC socket inflate exactly the term the paper attributes them to",
		},
	}, nil
}
