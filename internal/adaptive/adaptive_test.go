package adaptive

import (
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// testEnv is the usual two-machine rig: one RC QP, a 1MB local MR (fragments
// above 32KB, consolidator shadow below), a 1MB staging MR, a 1MB remote MR.
type testEnv struct {
	cl         *cluster.Cluster
	ctxA, ctxB *verbs.Context
	qpA        *verbs.QP
	mrA        *verbs.MR
	mrB        *verbs.MR
	staging    *verbs.MR
}

func newTestEnv(t testing.TB, faults *fabric.FaultPlan) *testEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = faults
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))
	qpA, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		t.Fatal(err)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	staging := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	return &testEnv{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, mrA: mrA, mrB: mrB, staging: staging}
}

// mkFrags lays out n discontiguous size-byte fragments in mrA starting at
// base (keep base >= 32KB so the consolidator shadow below stays untouched).
func mkFrags(e *testEnv, n, size, base int) []core.Fragment {
	out := make([]core.Fragment, n)
	b := e.mrA.Region().Bytes()
	for i := 0; i < n; i++ {
		off := base + i*2*size
		for j := 0; j < size; j++ {
			b[off+j] = byte('a' + i%26)
		}
		out[i] = core.Fragment{Addr: e.mrA.Addr() + mem.Addr(off), Length: size}
	}
	return out
}

func mkRuntime(t testing.TB, e *testEnv, p Params, static core.Strategy, useCons bool) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		QP: e.qpA, LocalMR: e.mrA, Staging: e.staging,
		RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, MaxBlocks: 8,
		Params: p, Strategy: static, UseCons: useCons,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// --- tuner state machine -------------------------------------------------

// synth drives a dependency-free shadow controller one epoch at a time with
// synthetic batch tallies.
type synth struct {
	c   *Controller
	now sim.Time
}

func newSynth() *synth {
	c := NewController(Params{Epoch: 1000, Shadow: true}, nil, nil, nil)
	s := &synth{c: c}
	c.advance(0)
	s.epoch(0, 0, 0) // consume the discarded warm-up epoch
	return s
}

// epoch records ops batches of 16 fragments totalling bytes each, all at the
// given per-op latency, then crosses exactly one epoch boundary.
func (s *synth) epoch(ops, bytes int, lat sim.Duration) {
	for i := 0; i < ops; i++ {
		s.c.noteBatch(s.now, 16, bytes, s.now+lat)
	}
	s.now += s.c.params.Epoch
	s.c.advance(s.now)
}

// probeLats holds the measured cost of each candidate; feeding the active
// candidate's entry emulates "running" it for an epoch.
func (s *synth) probe(lats [3]sim.Duration, bytes int) {
	s.epoch(4, bytes, lats[s.c.batch.cand])
}

func TestTunerProbeLocksMeasuredBest(t *testing.T) {
	s := newSynth()
	lats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(lats, 1024)
	}
	if s.c.batch.state != stLocked {
		t.Fatal("tuner should lock after scoring every candidate")
	}
	if got := s.c.Decision().Batch; got != core.Doorbell {
		t.Fatalf("locked %v, want the measured-cheapest Doorbell", got)
	}
}

func TestTunerTieBreaksOnProbeOrder(t *testing.T) {
	s := newSynth()
	for i := 0; i < 3; i++ {
		s.probe([3]sim.Duration{1000, 1000, 1000}, 1024)
	}
	if got := s.c.Decision().Batch; got != core.SP {
		t.Fatalf("tie locked %v, want the first candidate SP", got)
	}
}

// TestTunerOscillatingFingerprintNeverFlipFlops is the hysteresis contract:
// a workload that straddles a fingerprint boundary, alternating every epoch,
// must never re-open probing — the drift counter needs Confirm consecutive
// drifted epochs and the oscillation keeps resetting it.
func TestTunerOscillatingFingerprintNeverFlipFlops(t *testing.T) {
	s := newSynth()
	lats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(lats, 1024) // lg(1024)=11 fingerprint
	}
	s.epoch(4, 1024, 1000) // burn the dwell cooldown
	s.epoch(4, 1024, 1000)
	locked := len(s.c.Records())
	for i := 0; i < 30; i++ {
		bytes := 1024
		if i%2 == 0 {
			bytes = 5000 // lg(5000)=13: drifted fingerprint
		}
		s.epoch(4, bytes, 1000)
	}
	if got := len(s.c.Records()); got != locked {
		t.Fatalf("oscillating fingerprint produced %d decision changes, want 0", got-locked)
	}
	if got := s.c.Decision().Batch; got != core.Doorbell {
		t.Fatalf("strategy flip-flopped to %v", got)
	}
	seen := map[int64]bool{}
	for _, r := range s.c.Records() {
		if seen[r.Epoch] {
			t.Fatalf("two decision changes in epoch %d", r.Epoch)
		}
		seen[r.Epoch] = true
	}
}

// TestTunerSustainedDriftReprobes: the same drift held for Confirm epochs
// (after the Dwell cooldown) re-opens probing, and the re-probe locks the
// candidate the new workload measures cheapest.
func TestTunerSustainedDriftReprobes(t *testing.T) {
	s := newSynth()
	oldLats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(oldLats, 1024)
	}
	if s.c.Decision().Batch != core.Doorbell {
		t.Fatal("setup: expected Doorbell lock")
	}
	// The workload changes shape for good: the first two drifted epochs fall
	// in the dwell window (ignored), the next Confirm=2 arm the re-probe.
	newLats := [3]sim.Duration{500, 1000, 2000}
	before := len(s.c.Records())
	for i := 0; i < 3; i++ {
		s.epoch(4, 64*1024, newLats[s.c.batch.cand])
		if s.c.batch.state != stLocked {
			t.Fatalf("re-probed after %d drifted epochs, dwell+confirm=4 required", i+1)
		}
	}
	s.epoch(4, 64*1024, newLats[s.c.batch.cand]) // confirm reached: re-probe opens
	if s.c.batch.state != stProbe {
		t.Fatal("sustained drift past dwell+confirm must re-open probing")
	}
	for i := 0; i < 3; i++ {
		s.epoch(4, 64*1024, newLats[s.c.batch.cand])
	}
	if got := s.c.Decision().Batch; got != core.SP {
		t.Fatalf("re-probe locked %v, want SP (cheapest under the new shape)", got)
	}
	if len(s.c.Records()) <= before {
		t.Fatal("the re-probe cycle should have logged decision changes")
	}
}

func TestTunerFreezesOnIdleEpochs(t *testing.T) {
	s := newSynth()
	lats := [3]sim.Duration{3000, 1000, 2000}
	for i := 0; i < 3; i++ {
		s.probe(lats, 1024)
	}
	want := s.c.Decision()
	for i := 0; i < 10; i++ {
		s.epoch(0, 0, 0) // no ops: nothing to measure, nothing may move
	}
	if got := s.c.Decision(); got.Batch != want.Batch || got.Depth != want.Depth {
		t.Fatalf("idle epochs moved knobs: %+v -> %+v", want, got)
	}
}

func TestControllerWithoutStagingDropsSP(t *testing.T) {
	e := newTestEnv(t, nil)
	rt, err := NewRuntime(Config{
		QP: e.qpA, LocalMR: e.mrA, Staging: nil,
		RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, MaxBlocks: 8,
		Strategy: core.SGL, // SP is impossible without staging
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rt.Controller()
	if c.batch.n != 2 || c.strategies[0] != core.Doorbell {
		t.Fatalf("no staging: candidate set should be {Doorbell, SGL}, got n=%d %v",
			c.batch.n, c.strategies)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	e := newTestEnv(t, nil)
	base := Config{
		QP: e.qpA, LocalMR: e.mrA, Staging: e.staging,
		RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, MaxBlocks: 8,
	}
	bad := base
	bad.QP = nil
	if _, err := NewRuntime(bad); err == nil {
		t.Error("nil QP accepted")
	}
	bad = base
	bad.Theta = 0
	if _, err := NewRuntime(bad); err == nil {
		t.Error("zero theta accepted")
	}
	bad = base
	bad.MaxBlocks = 2000 // needs (2000+2)KB > the 1MB local MR
	if _, err := NewRuntime(bad); err == nil {
		t.Error("local MR too small for the shadow accepted")
	}
}

// --- shadow passivity ----------------------------------------------------

// TestShadowRuntimeIsPassive pins the acceptance property golden #31 builds
// on: a shadow-mode runtime (controller observing through the post hook and
// the op path) produces exactly the timings of the bare static pipeline.
func TestShadowRuntimeIsPassive(t *testing.T) {
	eBare := newTestEnv(t, nil)
	eRt := newTestEnv(t, nil)
	bareB, err := core.NewBatcher(core.SGL, eBare.qpA, eBare.mrA, eBare.staging, eBare.mrB)
	if err != nil {
		t.Fatal(err)
	}
	bareC, err := core.NewConsolidator(core.ConsolidatorConfig{
		QP: eBare.qpA, LocalMR: eBare.mrA, RemoteMR: eBare.mrB,
		RemoteBase: eBare.mrB.Addr(), BlockSize: 1024, Theta: 16, MaxBlocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := mkRuntime(t, eRt, Params{
		Epoch: 5 * sim.Microsecond, Shadow: true,
	}, core.SGL, true)

	frBare := mkFrags(eBare, 16, 64, 32768)
	frRt := mkFrags(eRt, 16, 64, 32768)
	small := []byte("0123456789abcdef0123456789abcdef")
	nowBare, nowRt := sim.Time(0), sim.Time(0)
	for i := 0; i < 200; i++ {
		rb, err := bareB.WriteBatch(nowBare, frBare, eBare.mrB.Addr()+65536)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rt.WriteBatch(nowRt, frRt, eRt.mrB.Addr()+65536)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Done != rr.Done || rb.CPU != rr.CPU || rb.Requests != rr.Requests {
			t.Fatalf("iter %d: batch diverged: bare %+v, shadow runtime %+v", i, rb, rr)
		}
		db, err := bareC.Write(rb.Done, (i%32)*32, small)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := rt.SmallWrite(rr.Done, (i%32)*32, small)
		if err != nil {
			t.Fatal(err)
		}
		if db != dr {
			t.Fatalf("iter %d: small write diverged: bare %v, shadow runtime %v", i, db, dr)
		}
		nowBare, nowRt = db, dr
	}
	// One more batch right before the check: per-epoch tallies reset at every
	// close, but nothing can close between this post and the assertion.
	if _, err := rt.WriteBatch(nowRt, frRt, eRt.mrB.Addr()+65536); err != nil {
		t.Fatal(err)
	}
	if c := rt.Controller(); c.posts == 0 {
		t.Fatal("shadow controller saw no posts: the hook is not wired")
	}
}

// --- live adaptation -----------------------------------------------------

func noDoubleMoves(t *testing.T, c *Controller) {
	t.Helper()
	seen := map[int64]bool{}
	for _, r := range c.Records() {
		if seen[r.Epoch] {
			t.Fatalf("two decision changes in epoch %d", r.Epoch)
		}
		seen[r.Epoch] = true
	}
	if c.DroppedRecords() != 0 {
		t.Fatalf("decision log overflowed: %d dropped", c.DroppedRecords())
	}
}

// TestRuntimeAdaptsBatchStrategyAcrossPhases drives a live controller
// through the fig3 phase change: 64B fragments (SP's regime) then 2KB
// fragments (Doorbell's regime). The controller must lock the measured best
// in each phase and switch between them through the drift detector.
func TestRuntimeAdaptsBatchStrategyAcrossPhases(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 10 * sim.Microsecond}, core.SGL, false)
	c := rt.Controller()

	smallFr := mkFrags(e, 16, 64, 32768)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		r, err := rt.WriteBatch(now, smallFr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	if c.batch.state != stLocked {
		t.Fatal("phase 1 never locked")
	}
	if got := c.Decision().Batch; got != core.SP {
		t.Fatalf("phase 1 (16x64B) locked %v, want SP (fig3's winner)", got)
	}

	bigFr := mkFrags(e, 16, 2048, 32768)
	for i := 0; i < 300; i++ {
		r, err := rt.WriteBatch(now, bigFr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	if got := c.Decision().Batch; got != core.Doorbell {
		t.Fatalf("phase 2 (16x2KB) locked %v, want Doorbell (fig3's winner)", got)
	}
	noDoubleMoves(t, c)
}

// TestRuntimeSmallWritePathAdapts: a block-hot write stream locks the
// consolidator in; when the working set outgrows the shadow (every touch
// evicts) the collapse watchdog demotes straight to the native path —
// no probe, since a probe's preceding drain would hand the consolidator
// an empty shadow and an unearned win.
func TestRuntimeSmallWritePathAdapts(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 10 * sim.Microsecond}, core.SGL, false)
	c := rt.Controller()
	data := []byte("0123456789abcdef0123456789abcdef")

	now := sim.Time(0)
	for i := 0; i < 400; i++ { // hot: one block, sequential 32B slots
		d, err := rt.SmallWrite(now, (i%32)*32, data)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if c.small.state != stLocked || !c.Decision().Cons {
		t.Fatalf("hot phase should lock the consolidator in, got %+v", c.Decision())
	}

	for i := 0; i < 600; i++ { // scattered: 64 blocks through an 8-block shadow
		d, err := rt.SmallWrite(now, ((i*7)%64)*1024, data)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if c.Decision().Cons {
		t.Fatal("scattered phase should abandon the consolidator")
	}
	// The switch-away drained the shadow: a final Flush has nothing to do.
	d, err := rt.Flush(now)
	if err != nil {
		t.Fatal(err)
	}
	if d != now {
		t.Fatalf("pending blocks survived the cons->direct drain (flush took %v)", d-now)
	}
	noDoubleMoves(t, c)
}

// TestRuntimeRetunesThetaOnLeaseDominance: bursts that park 6 modifications
// per epoch against θ=16 drain by lease, never by threshold — the θ tuner
// must walk θ down until threshold flushes resume (16 -> 8 -> 4, stable).
func TestRuntimeRetunesThetaOnLeaseDominance(t *testing.T) {
	e := newTestEnv(t, nil)
	rt, err := NewRuntime(Config{
		QP: e.qpA, LocalMR: e.mrA, Staging: e.staging,
		RemoteMR: e.mrB, RemoteBase: e.mrB.Addr(),
		BlockSize: 1024, Theta: 16, MaxBlocks: 8, Lease: 5 * sim.Microsecond,
		Params: Params{Epoch: 10 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rt.Controller()
	data := []byte("0123456789abcdef0123456789abcdef")

	now := sim.Time(0)
	for burst := 0; burst < 40; burst++ {
		for i := 0; i < 6; i++ {
			d, err := rt.SmallWrite(now, i*32, data)
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		now += 8 * sim.Microsecond // idle past the lease: the epoch tick flushes
	}
	if !c.Decision().Cons {
		t.Fatal("bursty absorbing workload should keep the consolidator")
	}
	if got := c.Decision().Theta; got != 4 {
		t.Fatalf("theta=%d after lease-dominated epochs, want 4 (16 halved twice, then threshold flushes resume)", got)
	}
	if got := rt.cons.Theta(); got != 4 {
		t.Fatalf("decision not applied to the live consolidator: Theta()=%d", got)
	}
	noDoubleMoves(t, c)
}

// TestRuntimeHalvesDoorbellDepthUnderLoss: on a lossy fabric the depth tuner
// sees retransmit deltas and walks the doorbell list depth down.
func TestRuntimeHalvesDoorbellDepthUnderLoss(t *testing.T) {
	e := newTestEnv(t, &fabric.FaultPlan{Seed: 3, Drop: 0.05})
	rt := mkRuntime(t, e, Params{Epoch: 20 * sim.Microsecond}, core.SGL, false)
	c := rt.Controller()

	fr := mkFrags(e, 16, 256, 32768)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		r, err := rt.WriteBatch(now, fr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	if s := e.qpA.Stats(); s.Retransmits == 0 {
		t.Fatal("fault plan inactive: no retransmits, the depth tuner was never tested")
	}
	minDepth := DefaultMaxDepth
	for _, r := range c.Records() {
		if r.Depth < minDepth {
			minDepth = r.Depth
		}
	}
	if minDepth >= DefaultMaxDepth {
		t.Fatalf("depth never halved under 5%% loss (records: %+v)", c.Records())
	}
	noDoubleMoves(t, c)
}

// --- allocation ceilings -------------------------------------------------

// TestRuntimeWriteBatchAllocFree extends the PR 4 ceilings to the adaptive
// path: a live controller (epochs closing mid-measurement) on the WriteBatch
// hot loop stays off the heap once warm.
func TestRuntimeWriteBatchAllocFree(t *testing.T) {
	e := newTestEnv(t, nil)
	rt := mkRuntime(t, e, Params{Epoch: 2 * sim.Microsecond}, core.SGL, false)
	fr := mkFrags(e, 16, 64, 32768)
	now := sim.Time(0)
	op := func() {
		r, err := rt.WriteBatch(now, fr, e.mrB.Addr()+131072)
		if err != nil {
			t.Fatal(err)
		}
		now = r.Done
	}
	for i := 0; i < 400; i++ { // warm: probe all strategies, grow scratch, lock
		op()
	}
	if rt.Controller().batch.state != stLocked {
		t.Fatal("warmup did not lock the batch tuner")
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("adaptive WriteBatch allocates %.2f/op with the controller live, want 0", allocs)
	}
}

// TestPostSendAllocFreeWithObserver pins the hook itself: a controller
// attached as the QP's post observer adds zero allocations to the raw
// PostSend path.
func TestPostSendAllocFreeWithObserver(t *testing.T) {
	e := newTestEnv(t, nil)
	ctrl := NewController(Params{Shadow: true}, e.qpA, nil, nil)
	e.qpA.SetPostObserver(ctrl)
	wr := &verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        []verbs.SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	now := sim.Time(0)
	post := func() {
		c, err := e.qpA.PostSend(now, wr)
		if err != nil {
			t.Fatal(err)
		}
		now = c.Done
		e.qpA.SendCQ().PollOne(now)
	}
	post()
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Fatalf("PostSend with observer allocates %.2f/op, want 0", allocs)
	}
	if ctrl.posts == 0 {
		t.Fatal("observer attached but never notified")
	}
}
