package core

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

func TestUDRPCValidation(t *testing.T) {
	e := newLockEnv(t, 1)
	if _, err := NewUDRPCServer(nil, 1, e.srvMR, 300); err == nil {
		t.Error("nil context must fail")
	}
	if _, err := NewUDRPCServer(e.server, 1, e.srvMR, 0); err == nil {
		t.Error("zero service must fail")
	}
	if _, err := NewUDRPCServer(e.server, 9, e.srvMR, 300); err == nil {
		t.Error("bad port must fail")
	}
}

func TestUDRPCCallRoundTrip(t *testing.T) {
	e := newLockEnv(t, 2)
	srv, err := NewUDRPCServer(e.server, 1, e.srvMR, 300)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := srv.NewUDRPCClient(e.clients[0], 1, e.scrs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, done, err := c0.Call(0, 16, 8, func(at sim.Time) uint64 {
		if at <= 0 {
			t.Fatal("handler must run at a positive time")
		}
		return 99
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("handler result %d", got)
	}
	if done <= 0 {
		t.Fatal("call must take time")
	}
}

// The paper cites Kalia et al.: UD RPC outruns connected-transport RPC. The
// datagram exchange saves the RC acknowledgements in both directions.
func TestUDRPCFasterThanRCRPC(t *testing.T) {
	e := newLockEnv(t, 2)
	rcSrv, err := NewRPCServer(e.server, e.srvMR, 300)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := rcSrv.NewRPCClient(e.clients[0], 1, 1, e.scrs[0])
	if err != nil {
		t.Fatal(err)
	}
	udSrv, err := NewUDRPCServer(e.server, 1, e.srvMR, 300)
	if err != nil {
		t.Fatal(err)
	}
	ud, err := udSrv.NewUDRPCClient(e.clients[1], 1, e.scrs[1])
	if err != nil {
		t.Fatal(err)
	}
	// Warm both paths, then compare steady-state latency.
	rc.Call(0, 16, 8, nil)
	ud.Call(0, 16, 8, nil)
	base := sim.Time(sim.Millisecond)
	_, rcDone, err := rc.Call(base, 16, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, udDone, err := ud.Call(base, 16, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if udDone-base >= rcDone-base {
		t.Fatalf("UD RPC (%v) should beat RC RPC (%v)", udDone-base, rcDone-base)
	}
}

func TestUDRPCSequencer(t *testing.T) {
	e := newLockEnv(t, 2)
	srv, err := NewUDRPCServer(e.server, 1, e.srvMR, 300)
	if err != nil {
		t.Fatal(err)
	}
	var counter uint64
	var seqs []*RPCSequencer
	for i := 0; i < 2; i++ {
		c, err := srv.NewUDRPCClient(e.clients[i], 1, e.scrs[i])
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, NewRPCSequencer(c, &counter))
	}
	v0, d0, err := seqs[0].Next(0)
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := seqs[1].Next(d0)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 0 || v1 != 1 {
		t.Fatalf("ud rpc sequence %d,%d", v0, v1)
	}
}

// TestUDRPCSequencerLossy: over a fabric that drops 30% of datagrams, every
// lost leg is sent again, so the sequencer hands out 0..n-1 with no gap and
// the server runs its handler exactly once per call.
func TestUDRPCSequencerLossy(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 3
	cfg.Faults = &fabric.FaultPlan{Seed: 5, Drop: 0.3}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server := verbs.NewContext(cl.Machine(0))
	srv, err := NewUDRPCServer(server, 1, server.MustRegisterMR(cl.Machine(0).MustAlloc(1, 4096, 0)), 300)
	if err != nil {
		t.Fatal(err)
	}
	var counter uint64
	var seqs []*RPCSequencer
	var clients []*UDRPCClient
	for i := 1; i <= 2; i++ {
		ctx := verbs.NewContext(cl.Machine(i))
		c, err := srv.NewUDRPCClient(ctx, 1, ctx.MustRegisterMR(cl.Machine(i).MustAlloc(1, 4096, 0)))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		seqs = append(seqs, NewRPCSequencer(c, &counter))
	}
	const n = 200
	now := sim.Time(0)
	for want := uint64(0); want < n; want++ {
		v, done, err := seqs[want%2].Next(now)
		if err != nil {
			t.Fatalf("call %d: %v", want, err)
		}
		if v != want {
			t.Fatalf("call %d returned %d: sequence has a gap", want, v)
		}
		now = done
	}
	if counter != n {
		t.Fatalf("handler ran %d times for %d calls", counter, n)
	}
	if drops := cl.Fabric().FaultStats().Drops; drops == 0 {
		t.Fatal("the plan dropped no datagram: the retransmit path went unexercised")
	}
	// Every receive buffer a call posted was consumed by its datagram.
	if srv.qp.CancelRecv() || clients[0].qp.CancelRecv() || clients[1].qp.CancelRecv() {
		t.Fatal("a receive buffer stayed posted after its call returned")
	}
}

// TestUDRPCGivesUpWithoutLeak: on a fabric that drops everything the call
// fails after its retries and leaves no receive buffer posted behind.
func TestUDRPCGivesUpWithoutLeak(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = &fabric.FaultPlan{Seed: 1, Drop: 1}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sctx, cctx := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	srv, err := NewUDRPCServer(sctx, 1, sctx.MustRegisterMR(cl.Machine(0).MustAlloc(1, 4096, 0)), 300)
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.NewUDRPCClient(cctx, 1, cctx.MustRegisterMR(cl.Machine(1).MustAlloc(1, 4096, 0)))
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if _, _, err := c.Call(0, 8, 8, func(sim.Time) uint64 { ran = true; return 0 }); err == nil {
		t.Fatal("a call over a fabric that drops everything must fail")
	}
	if ran {
		t.Fatal("the handler ran although no request arrived")
	}
	if want := uint64(verbs.DefaultRetryPolicy().RetryCount + 1); cl.Fabric().FaultStats().Drops != want {
		t.Fatalf("%d datagrams dropped, want %d (one send plus every retry)", cl.Fabric().FaultStats().Drops, want)
	}
	if srv.qp.CancelRecv() || c.qp.CancelRecv() {
		t.Fatal("a receive buffer stayed posted after the failed call")
	}
}

func TestUDRPCLockMutualExclusion(t *testing.T) {
	e := newLockEnv(t, 3)
	srv, err := NewUDRPCServer(e.server, 1, e.srvMR, 300)
	if err != nil {
		t.Fatal(err)
	}
	state := NewLockState()
	var locks []*RPCLock
	for i := 0; i < 3; i++ {
		c, err := srv.NewUDRPCClient(e.clients[i], 1, e.scrs[i])
		if err != nil {
			t.Fatal(err)
		}
		locks = append(locks, NewRPCLock(state, c, i))
	}
	type iv struct{ a, r sim.Time }
	var ivs []iv
	clients := make([]*sim.Client, 3)
	for i := 0; i < 3; i++ {
		lock := locks[i]
		clients[i] = &sim.Client{
			PostCost: 150, Window: 1, MaxOps: 10,
			Op: func(post sim.Time) sim.Time {
				at, err := lock.Acquire(post)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := lock.Release(at + 100)
				if err != nil {
					t.Fatal(err)
				}
				ivs = append(ivs, iv{at, rt})
				return rt
			},
		}
	}
	sim.RunClosedLoop(clients, sim.Second)
	if len(ivs) != 30 {
		t.Fatalf("cycles=%d", len(ivs))
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].a < ivs[j].r && ivs[j].a < ivs[i].r {
				t.Fatal("UD RPC lock critical sections overlap")
			}
		}
	}
}

// Interface check: both transports satisfy Caller.
var (
	_ Caller = (*RPCClient)(nil)
	_ Caller = (*UDRPCClient)(nil)
	_        = verbs.UDMTU
)
