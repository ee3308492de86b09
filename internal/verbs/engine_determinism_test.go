// This file is an external test (package verbs_test) so it can drive the
// connection-serving layer (internal/proxy, which imports verbs) through the
// same determinism property as the raw verbs traffic.
package verbs_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"rdmasem/internal/adaptive"
	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// engineObservation is everything a run exposes: the closed-loop result
// (with full latency records), the rendered telemetry snapshot, per-NIC
// stage and reliability counters, the fabric fault tallies, every
// endpoint's inbox witness (delivery count + merge-order hash), and the
// connection-serving layer's demux/SRQ/daemon tallies.
type engineObservation struct {
	res        sim.Result
	metrics    string
	nics       []rnic.StageCounters
	faults     fabric.FaultStats
	deliveries []uint64
	hashes     []uint64

	table                      proxy.TableStats
	srqPosted, srqHanded       uint64
	daemonStaged, daemonDirect int64

	// the flapping-link recovering pair (machines 10/11)
	rtable   proxy.TableStats
	rec      proxy.RecoveryStats
	ttrCount int64
	ttrSum   sim.Duration

	// the adaptive-runtime pair (machines 12/13): the controller's entire
	// decision log plus its overflow count and final knob tuple
	decisions []adaptive.Record
	dropped   int
	final     adaptive.Record
}

// runEngineWorkload builds a fresh cluster under a seeded lossy, flapping
// fabric with telemetry attached — four machine pairs of mixed RC
// WRITE/READ traffic, a fifth pair serving twelve logical connections
// through an SRQ, a shared-pool connection table and a proxy daemon, a
// sixth pair whose pooled QPs die in flap windows and self-heal through the
// table's recovery layer, and a seventh pair routing mixed batch and small
// writes through a live adaptive runtime — drives it on the sharded engine
// at the given worker count, and returns the full observation.
func runEngineWorkload(t *testing.T, workers int) engineObservation {
	t.Helper()
	const pairs = 4
	reg := telemetry.NewRegistry()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2*pairs + 6
	// The plan flaps every link down for 4us of each 50us window on top of
	// the random loss. The raw pairs ride it out on the default retry policy
	// (16us base timeout: no two attempts land in one window); only the
	// recovering pair below runs a budget tight enough to die and heal.
	cfg.Faults = &fabric.FaultPlan{
		Seed: 5, Drop: 0.01, Corrupt: 0.005, DelayP: 0.02, Delay: 2000,
		FlapDown: 4 * sim.Microsecond, FlapPeriod: 50 * sim.Microsecond,
	}
	cfg.Telemetry = reg
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := cl.NewEngine(workers)
	for p := 0; p < pairs; p++ {
		ma, mb := cl.Machine(2*p), cl.Machine(2*p+1)
		ctxA, ctxB := verbs.NewContext(ma), verbs.NewContext(mb)
		qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
		if err != nil {
			t.Fatal(err)
		}
		mrA := ctxA.MustRegisterMR(ma.MustAlloc(1, 1<<20, 0))
		mrB := ctxB.MustRegisterMR(mb.MustAlloc(1, 1<<20, 0))
		p := p
		write := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr(), Length: 256, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(p*4096),
			RemoteKey:  mrB.RKey(),
		}
		read := &verbs.SendWR{
			Opcode:     verbs.OpRead,
			SGL:        []verbs.SGE{{Addr: mrA.Addr() + 4096, Length: 128, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(p*4096+2048),
			RemoteKey:  mrB.RKey(),
		}
		eng.Add(&sim.Client{
			PostCost: 200, Window: 2, RecordLatencies: true,
			Op: func(post sim.Time) sim.Time {
				c, err := qp.PostSend(post, write)
				if err != nil {
					panic(err)
				}
				return c.Done
			},
		}, ma, mb)
		eng.Add(&sim.Client{
			PostCost: 300, Window: 1,
			Op: func(post sim.Time) sim.Time {
				c, err := qp.PostSend(post, read)
				if err != nil {
					panic(err)
				}
				return c.Done
			},
		}, ma, mb)
	}

	// Fifth pair: the connection-serving stack under the same lossy plan.
	// Twelve logical connections share a pool of four physical QPs behind a
	// table; the server drains every inbound SEND from one SRQ; a third of
	// the connections go through the proxy daemon. A pooled QP that exhausts
	// its retry budget flushes its own connections — the clients tolerate
	// ErrQPError and keep looping, and that error path must be just as
	// deterministic as the happy one.
	mc, md := cl.Machine(2*pairs), cl.Machine(2*pairs+1)
	ctxC, ctxD := verbs.NewContext(mc), verbs.NewContext(md)
	srq := verbs.NewSRQ(ctxD)
	pool := make([]*verbs.QP, 4)
	for i := range pool {
		qp, peer := verbs.MustConnect(ctxC, 1, ctxD, 1, verbs.RC)
		if err := peer.AttachSRQ(srq); err != nil {
			t.Fatal(err)
		}
		pool[i] = qp
	}
	table, err := proxy.NewTable(pool, 12)
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := proxy.NewDaemon(table)
	if err != nil {
		t.Fatal(err)
	}
	mrC := ctxC.MustRegisterMR(mc.MustAlloc(1, 1<<20, 0))
	mrD := ctxD.MustRegisterMR(md.MustAlloc(1, 1<<20, 0))
	for cli := 0; cli < 3; cli++ {
		cli := cli
		conns := []int{cli * 4, cli*4 + 1, cli*4 + 2, cli*4 + 3}
		wr := &verbs.SendWR{
			Opcode: verbs.OpSend,
			SGL:    []verbs.SGE{{Addr: mrC.Addr() + mem.Addr(cli*256), Length: 96, MR: mrC}},
		}
		turn := 0
		eng.Add(&sim.Client{
			PostCost: 250, Window: 1, RecordLatencies: cli == 0,
			Op: func(post sim.Time) sim.Time {
				conn := conns[turn%len(conns)]
				turn++
				if err := srq.PostRecv(verbs.RecvWR{SGE: verbs.SGE{
					Addr: mrD.Addr() + mem.Addr(conn*256), Length: 256, MR: mrD,
				}}); err != nil {
					panic(err)
				}
				var del proxy.Delivery
				var err error
				if cli == 2 {
					del, err = daemon.Post(post, conn, wr)
				} else {
					del, err = table.Post(post, conn, wr)
				}
				if err != nil && !errors.Is(err, verbs.ErrQPError) {
					panic(err)
				}
				if del.Completion.Done > post {
					return del.Completion.Done
				}
				return post
			},
		}, mc, md)
	}

	// Sixth pair: self-healing connections on the flapping fabric. Two
	// pooled QPs with a hair-trigger retry budget serve four logical
	// connections with full recovery (reconnect + remap) armed: QPs die
	// inside down windows, episodes remap and replay across the pool, and
	// the whole churn — episode counts, reconnect walks on the CM
	// resources, TTR histograms — must merge identically at any width.
	me, mf := cl.Machine(2*pairs+2), cl.Machine(2*pairs+3)
	ctxE, ctxF := verbs.NewContext(me), verbs.NewContext(mf)
	rpool := make([]*verbs.QP, 2)
	for i := range rpool {
		qp, _ := verbs.MustConnect(ctxE, 1, ctxF, 1, verbs.RC)
		qp.SetRetryPolicy(verbs.RetryPolicy{
			RetryCount: 1, RNRRetryCount: 1,
			AckTimeout: 2 * sim.Microsecond, RNRTimer: 2 * sim.Microsecond,
		})
		rpool[i] = qp
	}
	rtable, err := proxy.NewTable(rpool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rtable.EnableRecovery(proxy.DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	mrE := ctxE.MustRegisterMR(me.MustAlloc(1, 1<<20, 0))
	mrF := ctxF.MustRegisterMR(mf.MustAlloc(1, 1<<20, 0))
	for cli := 0; cli < 2; cli++ {
		cli := cli
		conns := []int{cli * 2, cli*2 + 1}
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrE.Addr() + mem.Addr(cli*256), Length: 64, MR: mrE}},
			RemoteAddr: mrF.Addr() + mem.Addr(cli*256),
			RemoteKey:  mrF.RKey(),
		}
		turn := 0
		eng.Add(&sim.Client{
			PostCost: 250, Window: 1,
			Op: func(post sim.Time) sim.Time {
				conn := conns[turn%len(conns)]
				turn++
				del, err := rtable.Post(post, conn, wr)
				if err != nil && !errors.Is(err, verbs.ErrQPError) {
					panic(err)
				}
				next := del.Completion.Done
				if next < post {
					next = post
				}
				if err != nil || del.Completion.Status != verbs.StatusOK {
					next += 2 * sim.Microsecond // application-level retry pacing
				}
				return next
			},
		}, me, mf)
	}

	// Seventh pair: a live adaptive runtime on the same lossy, flapping
	// fabric. The controller closes virtual-time epochs, probes batch
	// strategies, and retunes the doorbell depth off this pair's completion
	// errors — its whole decision log must be identical at any worker count.
	mg, mh := cl.Machine(2*pairs+4), cl.Machine(2*pairs+5)
	ctxG, ctxH := verbs.NewContext(mg), verbs.NewContext(mh)
	qpG, _ := verbs.MustConnect(ctxG, 1, ctxH, 1, verbs.RC)
	mrG := ctxG.MustRegisterMR(mg.MustAlloc(1, 1<<20, 0))
	mrH := ctxH.MustRegisterMR(mh.MustAlloc(1, 1<<20, 0))
	stG := ctxG.MustRegisterMR(mg.MustAlloc(1, 1<<18, 0))
	rt, err := adaptive.NewRuntime(adaptive.Config{
		QP: qpG, LocalMR: mrG, Staging: stG, RemoteMR: mrH, RemoteBase: mrH.Addr(),
		BlockSize: 1024, Theta: 8, MaxBlocks: 8,
		Params:   adaptive.Params{Epoch: 10 * sim.Microsecond},
		Strategy: core.SGL,
	})
	if err != nil {
		t.Fatal(err)
	}
	frG := make([]core.Fragment, 8)
	for i := range frG {
		frG[i] = core.Fragment{Addr: mrG.Addr() + mem.Addr(1<<16+i*256), Length: 128}
	}
	smallG := bytes.Repeat([]byte{0x5a}, 48)
	aTurn := 0
	eng.Add(&sim.Client{
		PostCost: 200, Window: 1,
		Op: func(post sim.Time) sim.Time {
			aTurn++
			if aTurn%3 == 0 {
				done, err := rt.SmallWrite(post, (aTurn%16)*48, smallG)
				if err != nil {
					panic(err)
				}
				return done
			}
			res, err := rt.WriteBatch(post, frG, mrH.Addr()+mem.Addr(1<<18))
			if err != nil {
				panic(err)
			}
			return res.Done
		},
	}, mg, mh)

	obs := engineObservation{res: eng.Run(500 * sim.Microsecond)}
	cl.FoldTelemetry()
	var buf bytes.Buffer
	reg.Take().Render(&buf)
	obs.metrics = buf.String()
	for i := 0; i < cl.Size(); i++ {
		obs.nics = append(obs.nics, cl.Machine(i).NIC().Counters())
	}
	obs.faults = cl.Fabric().FaultStats()
	for _, e := range cl.Fabric().Endpoints() {
		obs.deliveries = append(obs.deliveries, e.Deliveries())
		obs.hashes = append(obs.hashes, e.MergeHash())
	}
	obs.table = table.Stats()
	obs.srqPosted, obs.srqHanded = srq.Posted(), srq.Handed()
	obs.daemonStaged, obs.daemonDirect = daemon.Stats()
	obs.rtable = rtable.Stats()
	obs.rec = rtable.RecoveryStats()
	obs.ttrCount, obs.ttrSum, _, _ = rtable.RecoveryTTR().Stats()
	ctrl := rt.Controller()
	obs.decisions = ctrl.Records()
	obs.dropped = ctrl.DroppedRecords()
	obs.final = ctrl.Decision()
	return obs
}

// TestEngineWorkerCountDeterminism is the cross-layer determinism property
// the sharded kernel promises: on a lossy fabric with telemetry attached,
// every observable — closed-loop results with latency records, telemetry
// snapshots, NIC stage and reliability counters, fault tallies, every
// endpoint's fabric-boundary merge witness, the SRQ/connection-table/
// proxy-daemon tallies, and the adaptive controller's decision log — is
// identical at workers 1, 2, 4 and 8.
func TestEngineWorkerCountDeterminism(t *testing.T) {
	want := runEngineWorkload(t, 1)
	if want.res.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if want.faults.Segments == 0 || want.faults.Drops == 0 {
		t.Fatalf("fault plan inactive (%+v); the property must hold under loss", want.faults)
	}
	if want.metrics == "" {
		t.Fatal("telemetry snapshot is empty")
	}
	anyRetrans := false
	for _, n := range want.nics {
		if n.Rel.Retransmits > 0 {
			anyRetrans = true
		}
	}
	if !anyRetrans {
		t.Fatal("no retransmissions: reliability layer not exercised")
	}
	if want.table.Posted == 0 || want.table.Delivered != want.table.Posted {
		t.Fatalf("connection table idle or leaking: %+v", want.table)
	}
	if want.srqHanded == 0 || want.srqHanded > want.srqPosted {
		t.Fatalf("SRQ not exercised or over-drained: posted=%d handed=%d", want.srqPosted, want.srqHanded)
	}
	if want.daemonStaged == 0 {
		t.Fatal("proxy daemon staged nothing")
	}
	if want.faults.FlapDrops == 0 {
		t.Fatal("no flap drops: the link-flap model not exercised")
	}
	if want.rec.Episodes == 0 || want.rec.Reconnects == 0 || want.rec.Replayed == 0 {
		t.Fatalf("recovering pair never recovered: %+v", want.rec)
	}
	if want.ttrCount == 0 {
		t.Fatal("TTR histogram empty: no WR was recovered")
	}
	if len(want.decisions) == 0 {
		t.Fatal("adaptive controller made no decisions: the tuner was not exercised")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runEngineWorkload(t, workers)
		if !reflect.DeepEqual(want.res, got.res) {
			t.Fatalf("workers=%d: results diverged", workers)
		}
		if want.metrics != got.metrics {
			t.Fatalf("workers=%d: telemetry snapshots diverged", workers)
		}
		if !reflect.DeepEqual(want.nics, got.nics) {
			t.Fatalf("workers=%d: NIC counters diverged", workers)
		}
		if want.faults != got.faults {
			t.Fatalf("workers=%d: fault stats diverged: %+v vs %+v", workers, want.faults, got.faults)
		}
		if !reflect.DeepEqual(want.deliveries, got.deliveries) || !reflect.DeepEqual(want.hashes, got.hashes) {
			t.Fatalf("workers=%d: fabric merge witnesses diverged", workers)
		}
		if want.table != got.table ||
			want.srqPosted != got.srqPosted || want.srqHanded != got.srqHanded ||
			want.daemonStaged != got.daemonStaged || want.daemonDirect != got.daemonDirect {
			t.Fatalf("workers=%d: connection-serving tallies diverged", workers)
		}
		if want.rtable != got.rtable || want.rec != got.rec ||
			want.ttrCount != got.ttrCount || want.ttrSum != got.ttrSum {
			t.Fatalf("workers=%d: recovery tallies diverged: %+v / %+v vs %+v / %+v",
				workers, want.rec, want.ttrCount, got.rec, got.ttrCount)
		}
		if !reflect.DeepEqual(want.decisions, got.decisions) ||
			want.dropped != got.dropped || want.final != got.final {
			t.Fatalf("workers=%d: adaptive decision logs diverged:\n%+v\nvs\n%+v",
				workers, want.decisions, got.decisions)
		}
	}
}
