package proxy_test

import (
	"errors"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// newFaultyTableEnv is newTableEnv over a cluster with a fault plan attached.
func newFaultyTableEnv(t *testing.T, poolSize, conns int, plan *fabric.FaultPlan) *tableEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = plan
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

func (e *tableEnv) writeWR(id uint64, size int) *verbs.SendWR {
	return &verbs.SendWR{
		ID:         id,
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
}

func TestEnableRecoveryValidation(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	if err := e.table.EnableRecovery(proxy.RecoveryPolicy{}); err == nil {
		t.Fatal("neither-reconnect-nor-remap policy must be rejected")
	}
	if err := e.table.EnableRecovery(proxy.RecoveryPolicy{Reconnect: true, Backoff: sim.DefaultBackoff()}); err == nil {
		t.Fatal("zero MaxAttempts with reconnect must be rejected")
	}
	bad := proxy.DefaultRecoveryPolicy()
	bad.Backoff.Base = 0
	if err := e.table.EnableRecovery(bad); err == nil {
		t.Fatal("zero-base backoff must be rejected")
	}
	if e.table.RecoveryEnabled() {
		t.Fatal("rejected policies must not arm recovery")
	}
	if err := e.table.EnableRecovery(proxy.DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	if !e.table.RecoveryEnabled() {
		t.Fatal("recovery not armed")
	}
}

// TestRecoveryRemapAndRehome: a dead pooled QP's connection is remapped to
// the survivor, its failed WR replays there with the caller's ID preserved,
// and once the background reconnect walk lands the connection re-pins to its
// home QP.
func TestRecoveryRemapAndRehome(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	if err := e.table.EnableRecovery(proxy.DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	e.pool[0].ForceError()
	del, err := e.table.Post(0, 0, e.writeWR(900, 64))
	if err != nil {
		t.Fatalf("recovered post returned %v", err)
	}
	if del.Conn != 0 || del.Completion.WRID != 900 || del.Completion.Status != verbs.StatusOK {
		t.Fatalf("recovered delivery %+v", del)
	}
	st := e.table.RecoveryStats()
	if st.Episodes != 1 || st.Remaps != 2 || st.Replayed != 1 || st.Reconnects != 1 {
		t.Fatalf("recovery stats %+v", st)
	}
	if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 1 {
		t.Fatalf("TTR histogram holds %d samples, want 1", count)
	}
	// Both of the dead member's connections moved to the survivor.
	if e.table.ConnQP(0) != e.pool[1] || e.table.ConnQP(2) != e.pool[1] {
		t.Fatal("dead QP's connections not remapped to the survivor")
	}
	// The reconnect walk charged both machines' CMs: 3 transitions per side.
	up := del.Completion.Done + 6*verbs.ModifyQPCost
	del2, err := e.table.Post(up, 0, e.writeWR(901, 64))
	if err != nil || del2.Completion.Status != verbs.StatusOK {
		t.Fatalf("post after reconnect: %+v err=%v", del2, err)
	}
	if e.table.ConnQP(0) != e.pool[0] {
		t.Fatal("connection not re-pinned to its home QP after the reconnect landed")
	}
	if st := e.table.RecoveryStats(); st.Rehomes == 0 {
		t.Fatalf("no rehome tallied: %+v", st)
	}
}

// TestRecoveryReconnectOnly: without remap, the failed WR waits for the
// reconnect walk and replays on the same (now recovered) pooled QP.
func TestRecoveryReconnectOnly(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	pol := proxy.DefaultRecoveryPolicy()
	pol.Remap = false
	if err := e.table.EnableRecovery(pol); err != nil {
		t.Fatal(err)
	}
	e.pool[0].ForceError()
	del, err := e.table.Post(0, 0, e.writeWR(910, 64))
	if err != nil || del.Completion.Status != verbs.StatusOK || del.Completion.WRID != 910 {
		t.Fatalf("recovered delivery %+v err=%v", del, err)
	}
	// No remap: the replay ran on the reconnected home QP, after the walk.
	if del.Completion.Done < 6*verbs.ModifyQPCost {
		t.Fatalf("recovered completion at %v precedes the reconnect walk", del.Completion.Done)
	}
	st := e.table.RecoveryStats()
	if st.Remaps != 0 || st.Reconnects != 1 || st.Replayed != 1 {
		t.Fatalf("recovery stats %+v", st)
	}
	if e.table.ConnQP(0) != e.pool[0] {
		t.Fatal("reconnect-only recovery must not move the connection")
	}
}

// TestRecoveryGiveUp: with no survivor to remap onto and the peer machine
// crashed across the whole reconnect budget, recovery delivers the original
// failure — exactly once, with the caller's WR ID — and tallies the give-up.
func TestRecoveryGiveUp(t *testing.T) {
	plan := &fabric.FaultPlan{Seed: 3, Crashes: []fabric.CrashEvent{
		{Machine: 1, At: 0, Down: 100 * sim.Millisecond},
	}}
	e := newFaultyTableEnv(t, 1, 2, plan)
	if err := e.table.EnableRecovery(proxy.DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	e.pool[0].ForceError()
	del, err := e.table.Post(0, 1, e.writeWR(920, 64))
	if !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("gave-up recovery returned %v, want ErrQPError", err)
	}
	if del.Conn != 1 || del.Completion.WRID != 920 || del.Completion.Status != verbs.StatusFlushed {
		t.Fatalf("gave-up delivery %+v", del)
	}
	st := e.table.RecoveryStats()
	if st.GiveUps != 1 || st.Reconnects != 0 || st.Replayed != 0 {
		t.Fatalf("recovery stats %+v", st)
	}
	if st.ReconnectFailures != uint64(proxy.DefaultRecoveryPolicy().MaxAttempts) {
		t.Fatalf("%d reconnect failures, want the full budget", st.ReconnectFailures)
	}
	if ts := e.table.Stats(); ts.Posted != ts.Delivered {
		t.Fatalf("pending tags leaked: %+v", ts)
	}
	if count, _, _, _ := e.table.RecoveryTTR().Stats(); count != 0 {
		t.Fatal("a gave-up WR must not count as recovered in the TTR histogram")
	}
}

// TestDeliverErrorStatuses pins the demux semantics of error completions
// without recovery: an RNR-exhausted WR and a flushed WR come back on the
// correct connection with the caller's ID restored, and their tags leave the
// pending map (satellite check for the deliver/unstamp bookkeeping).
func TestDeliverErrorStatuses(t *testing.T) {
	// A quiet-but-active fault plan engages the reliability layer (which
	// turns an empty receive queue into RNR NAK + retry) without dropping
	// anything itself.
	e := newFaultyTableEnv(t, 1, 2, &fabric.FaultPlan{Seed: 1, Drop: 1e-300})
	// No SRQ stocking: the SEND hits receiver-not-ready until the tiny RNR
	// budget exhausts.
	e.pool[0].SetRetryPolicy(verbs.RetryPolicy{
		RetryCount: 1, RNRRetryCount: 1,
		AckTimeout: 2 * sim.Microsecond, RNRTimer: 2 * sim.Microsecond,
	})
	del, err := e.table.Post(0, 1, e.sendWR(777, 64))
	if !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("RNR-exhausted post returned %v", err)
	}
	if del.Conn != 1 || del.Completion.WRID != 777 || del.Completion.Status != verbs.StatusRNRRetryExceeded {
		t.Fatalf("RNR delivery %+v", del)
	}
	// The QP is now in the error state: the next connection's WR flushes.
	del, err = e.table.Post(del.Completion.Done, 0, e.sendWR(778, 64))
	if !errors.Is(err, verbs.ErrQPError) {
		t.Fatalf("flushed post returned %v", err)
	}
	if del.Conn != 0 || del.Completion.WRID != 778 || del.Completion.Status != verbs.StatusFlushed {
		t.Fatalf("flushed delivery %+v", del)
	}
	st := e.table.Stats()
	if st.Posted != 2 || st.Delivered != 2 || st.Flushed != 1 {
		t.Fatalf("stats %+v: error completions must resolve their pending tags", st)
	}
}

// TestDaemonFailover: a dead primary daemon redirects requests to the
// standby on the same table — the first one paying the detection timeout —
// and a primary with no standby fails hard.
func TestDaemonFailover(t *testing.T) {
	e := newTableEnv(t, 2, 4)
	e.stock(t, 8)
	primary, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetStandby(nil); err == nil {
		t.Fatal("nil standby must be rejected")
	}
	if err := primary.SetStandby(primary); err == nil {
		t.Fatal("self standby must be rejected")
	}
	other := newTableEnv(t, 1, 1)
	foreign, err := proxy.NewDaemon(other.table)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetStandby(foreign); err == nil {
		t.Fatal("standby on a different table must be rejected")
	}
	if err := primary.SetStandby(standby); err != nil {
		t.Fatal(err)
	}

	before, err := primary.Post(0, 0, e.sendWR(50, 64))
	if err != nil || before.Completion.Status != verbs.StatusOK {
		t.Fatalf("pre-failure post %+v err=%v", before, err)
	}
	primary.FailAt(before.Completion.Done)

	first, err := primary.Post(before.Completion.Done, 1, e.sendWR(51, 64))
	if err != nil || first.Completion.Status != verbs.StatusOK {
		t.Fatalf("failover post %+v err=%v", first, err)
	}
	firstLat := first.Completion.Done - before.Completion.Done
	if firstLat < proxy.FailoverTimeout {
		t.Fatalf("first failover latency %v does not include the %v detection timeout", firstLat, proxy.FailoverTimeout)
	}
	next, err := primary.Post(first.Completion.Done, 2, e.sendWR(52, 64))
	if err != nil || next.Completion.Status != verbs.StatusOK {
		t.Fatalf("post-detection post %+v err=%v", next, err)
	}
	if nextLat := next.Completion.Done - first.Completion.Done; nextLat >= firstLat {
		t.Fatalf("detection timeout charged twice: first %v, next %v", firstLat, nextLat)
	}
	if primary.Failovers() != 2 {
		t.Fatalf("%d failovers, want 2", primary.Failovers())
	}
	if staged, _ := standby.Stats(); staged != 2 {
		t.Fatalf("standby staged %d requests, want 2", staged)
	}

	lone, err := proxy.NewDaemon(e.table)
	if err != nil {
		t.Fatal(err)
	}
	lone.FailAt(0)
	if _, err := lone.Post(0, 0, e.sendWR(53, 64)); err == nil {
		t.Fatal("dead daemon with no standby must fail the post")
	}
}
