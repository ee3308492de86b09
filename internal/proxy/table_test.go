package proxy_test

import (
	"errors"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// tableEnv is a two-machine cluster with a pool of RC QPs behind a
// connection table, an SRQ draining the server side, and slab MRs at both
// ends.
type tableEnv struct {
	cl         *cluster.Cluster
	ctxA, ctxB *verbs.Context
	pool       []*verbs.QP
	srq        *verbs.SRQ
	table      *proxy.Table
	mrA, mrB   *verbs.MR
}

func newTableEnv(t *testing.T, poolSize, conns int) *tableEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &tableEnv{
		cl:   cl,
		ctxA: verbs.NewContext(cl.Machine(0)),
		ctxB: verbs.NewContext(cl.Machine(1)),
	}
	e.srq = verbs.NewSRQ(e.ctxB)
	e.pool = make([]*verbs.QP, poolSize)
	for i := range e.pool {
		qp, peer := verbs.MustConnect(e.ctxA, 1, e.ctxB, 1, verbs.RC)
		if err := peer.AttachSRQ(e.srq); err != nil {
			t.Fatal(err)
		}
		e.pool[i] = qp
	}
	e.table, err = proxy.NewTable(e.pool, conns)
	if err != nil {
		t.Fatal(err)
	}
	e.mrA = e.ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	e.mrB = e.ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return e
}

// stock posts n receive buffers to the SRQ.
func (e *tableEnv) stock(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.srq.PostRecv(verbs.RecvWR{ID: uint64(i), SGE: verbs.SGE{
			Addr: e.mrB.Addr() + mem.Addr(i*256), Length: 256, MR: e.mrB,
		}}); err != nil {
			t.Fatal(err)
		}
	}
}

func (e *tableEnv) sendWR(id uint64, size int) *verbs.SendWR {
	return &verbs.SendWR{
		ID:     id,
		Opcode: verbs.OpSend,
		SGL:    []verbs.SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
	}
}

func TestNewTableValidation(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	if _, err := proxy.NewTable(nil, 4); err == nil {
		t.Fatal("empty pool must be rejected")
	}
	if _, err := proxy.NewTable(e.pool, 0); err == nil {
		t.Fatal("zero connections must be rejected")
	}
	// A pool spanning two different machine pairs is not one per-node table.
	cfg := cluster.DefaultConfig()
	cfg.Machines = 3
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx0, ctx1, ctx2 := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1)), verbs.NewContext(cl.Machine(2))
	qp01, _ := verbs.MustConnect(ctx0, 1, ctx1, 1, verbs.RC)
	qp02, _ := verbs.MustConnect(ctx0, 1, ctx2, 1, verbs.RC)
	if _, err := proxy.NewTable([]*verbs.QP{qp01, qp02}, 4); err == nil {
		t.Fatal("mixed-peer pool must be rejected")
	}
}

// TestTableDemuxRestoresIDs: completions come back on the posting
// connection with the caller's WR ID, and the WR itself is left untouched.
func TestTableDemuxRestoresIDs(t *testing.T) {
	e := newTableEnv(t, 2, 6)
	e.stock(t, 12)
	now := sim.Time(0)
	for conn := 0; conn < 6; conn++ {
		wr := e.sendWR(uint64(1000+conn), 64)
		del, err := e.table.Post(now, conn, wr)
		if err != nil {
			t.Fatal(err)
		}
		if del.Conn != conn {
			t.Fatalf("delivery for conn %d, want %d", del.Conn, conn)
		}
		if del.Completion.WRID != uint64(1000+conn) {
			t.Fatalf("WRID %d, want %d", del.Completion.WRID, 1000+conn)
		}
		if wr.ID != uint64(1000+conn) {
			t.Fatalf("caller's WR ID mutated to %d", wr.ID)
		}
		if del.Completion.Status != verbs.StatusOK {
			t.Fatalf("status %v", del.Completion.Status)
		}
		now = del.Completion.Done
	}
	st := e.table.Stats()
	if st.Posted != 6 || st.Delivered != 6 || st.Flushed != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Static mapping: conn c posts on pool[c%2].
	if e.table.ConnQP(0) != e.pool[0] || e.table.ConnQP(3) != e.pool[1] {
		t.Fatal("conn->pool mapping is not the static modulo")
	}
	if err := func() error {
		_, err := e.table.Post(now, 6, e.sendWR(1, 64))
		return err
	}(); err == nil {
		t.Fatal("out-of-range conn must be rejected")
	}
}

// TestPooledQPErrorFlushesOwnConnsOnly is the blast-radius property: a
// pooled QP in the error state flushes exactly its own connections' WRs
// with StatusFlushed; connections mapped to healthy pooled QPs complete
// normally alongside them.
func TestPooledQPErrorFlushesOwnConnsOnly(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.stock(t, 8)
	e.pool[0].ForceError()
	for round := 0; round < 2; round++ {
		for conn := 0; conn < 4; conn++ {
			id := uint64(500 + 4*round + conn)
			del, err := e.table.Post(0, conn, e.sendWR(id, 64))
			if del.Conn != conn || del.Completion.WRID != id {
				t.Fatalf("conn %d: delivery %+v, want its own conn and WRID %d", conn, del, id)
			}
			if conn%2 == 0 { // mapped to the dead pool[0]
				if !errors.Is(err, verbs.ErrQPError) || del.Completion.Status != verbs.StatusFlushed {
					t.Fatalf("dead-pool conn %d: status %v err %v, want StatusFlushed and ErrQPError", conn, del.Completion.Status, err)
				}
			} else if err != nil || del.Completion.Status != verbs.StatusOK { // healthy pool[1]
				t.Fatalf("live-pool conn %d: status %v err %v, want StatusOK", conn, del.Completion.Status, err)
			}
		}
	}
	st := e.table.Stats()
	if st.Posted != 8 || st.Delivered != 8 || st.Flushed != 4 {
		t.Fatalf("stats %+v, want 8 posted / 8 delivered / 4 flushed", st)
	}
}
