package verbs

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// pairEnv is a one-to-one test harness: two machines, one RC QP pair between
// port 1 of each (the NIC-socket-affine port), and one 1 MB MR on each side
// on the port's socket.
type pairEnv struct {
	cl       *cluster.Cluster
	ctxA     *Context
	ctxB     *Context
	qpA, qpB *QP
	mrA, mrB *MR
}

func newPair(t *testing.T) *pairEnv {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxA := NewContext(cl.Machine(0))
	ctxB := NewContext(cl.Machine(1))
	qpA, qpB, err := Connect(ctxA, 1, ctxB, 1, RC)
	if err != nil {
		t.Fatal(err)
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return &pairEnv{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, qpB: qpB, mrA: mrA, mrB: mrB}
}

func TestWriteMovesData(t *testing.T) {
	e := newPair(t)
	msg := []byte("one-sided write payload")
	copy(e.mrA.Region().Bytes(), msg)
	comp, err := e.qpA.PostSend(0, &SendWR{
		ID:         42,
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: len(msg), MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.WRID != 42 || comp.Bytes != len(msg) {
		t.Fatalf("completion %+v", comp)
	}
	if got := e.mrB.Region().Bytes()[:len(msg)]; !bytes.Equal(got, msg) {
		t.Fatalf("remote memory = %q, want %q", got, msg)
	}
}

func TestSGLWriteGathersScatteredBuffers(t *testing.T) {
	e := newPair(t)
	// Three discontiguous local fragments coalesce into one remote extent
	// (the SGL vector-IO mechanism of Section III-A).
	b := e.mrA.Region().Bytes()
	copy(b[0:], "AAAA")
	copy(b[100:], "BBBB")
	copy(b[200:], "CCCC")
	base := e.mrA.Addr()
	_, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpWrite,
		SGL: []SGE{
			{Addr: base, Length: 4, MR: e.mrA},
			{Addr: base + 100, Length: 4, MR: e.mrA},
			{Addr: base + 200, Length: 4, MR: e.mrA},
		},
		RemoteAddr: e.mrB.Addr() + 8,
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(e.mrB.Region().Bytes()[8:20]); got != "AAAABBBBCCCC" {
		t.Fatalf("remote = %q", got)
	}
}

func TestReadScattersIntoSGL(t *testing.T) {
	e := newPair(t)
	copy(e.mrB.Region().Bytes()[64:], "0123456789abcdef")
	base := e.mrA.Addr()
	_, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpRead,
		SGL: []SGE{
			{Addr: base, Length: 8, MR: e.mrA},
			{Addr: base + 512, Length: 8, MR: e.mrA},
		},
		RemoteAddr: e.mrB.Addr() + 64,
		RemoteKey:  e.mrB.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := e.mrA.Region().Bytes()
	if string(lb[:8]) != "01234567" || string(lb[512:520]) != "89abcdef" {
		t.Fatalf("scatter result %q / %q", lb[:8], lb[512:520])
	}
}

func TestCompareAndSwap(t *testing.T) {
	e := newPair(t)
	target := e.mrB.Addr()
	word := func() uint64 {
		var b [8]byte
		if err := e.ctxB.Machine().Space().ReadAt(target, b[:]); err != nil {
			t.Fatal(err)
		}
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	cas := func(compare, swap uint64) Completion {
		comp, err := e.qpA.PostSend(0, &SendWR{
			Opcode:     OpCompSwap,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: target,
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: compare,
			Swap:       swap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}
	c := cas(0, 7) // succeeds: 0 -> 7
	if c.OldValue != 0 || word() != 7 {
		t.Fatalf("first CAS old=%d word=%d", c.OldValue, word())
	}
	c = cas(0, 99) // fails: word is 7
	if c.OldValue != 7 || word() != 7 {
		t.Fatalf("failed CAS old=%d word=%d", c.OldValue, word())
	}
}

func TestFetchAndAdd(t *testing.T) {
	e := newPair(t)
	target := e.mrB.Addr() + 16
	var sum uint64
	for i := uint64(1); i <= 5; i++ {
		comp, err := e.qpA.PostSend(0, &SendWR{
			Opcode:     OpFetchAdd,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: target,
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		if comp.OldValue != sum {
			t.Fatalf("FAA old=%d, want %d", comp.OldValue, sum)
		}
		sum += i
	}
}

func TestSendRecv(t *testing.T) {
	e := newPair(t)
	if err := e.qpB.PostRecv(RecvWR{ID: 9, SGE: SGE{Addr: e.mrB.Addr(), Length: 256, MR: e.mrB}}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("two-sided message")
	copy(e.mrA.Region().Bytes()[32:], msg)
	comp, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpSend,
		SGL:    []SGE{{Addr: e.mrA.Addr() + 32, Length: len(msg), MR: e.mrA}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.mrB.Region().Bytes()[:len(msg)], msg) {
		t.Fatal("payload did not land in receive buffer")
	}
	// The receiver's CQ must carry the recv completion.
	cqes := e.qpB.RecvCQ().Poll(sim.MaxTime, 10)
	if len(cqes) != 1 || cqes[0].WRID != 9 || cqes[0].Bytes != len(msg) {
		t.Fatalf("recv CQEs %+v", cqes)
	}
	if comp.Done <= 0 {
		t.Fatal("send completion time must be positive")
	}
}

func TestSendWithoutRecvIsRNR(t *testing.T) {
	e := newPair(t)
	_, err := e.qpA.PostSend(0, &SendWR{
		Opcode: OpSend,
		SGL:    []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
	})
	if !errors.Is(err, ErrRNR) {
		t.Fatalf("err=%v, want ErrRNR", err)
	}
}

func TestValidationErrors(t *testing.T) {
	e := newPair(t)
	good := func() *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}

	wr := good()
	wr.SGL = nil
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadSGL) {
		t.Errorf("empty SGL: %v", err)
	}

	wr = good()
	wr.RemoteKey = 999
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadRKey) {
		t.Errorf("bad rkey: %v", err)
	}

	wr = good()
	wr.RemoteAddr = e.mrB.Addr() + mem.Addr(e.mrB.Region().Size()) - 4
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrMRBounds) {
		t.Errorf("remote overflow: %v", err)
	}

	wr = good()
	wr.SGL[0].Length = 2 << 20
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrMRBounds) {
		t.Errorf("local overflow: %v", err)
	}

	wr = good()
	wr.Opcode = OpCompSwap
	wr.SGL[0].Length = 16
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrAtomicSize) {
		t.Errorf("atomic size: %v", err)
	}

	wr = good()
	wr.Inline = true
	wr.SGL[0].Length = MaxInline + 1
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadSGL) {
		t.Errorf("inline too large: %v", err)
	}

	wr = good()
	wr.Opcode = OpRead
	wr.Inline = true
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadSGL) {
		t.Errorf("inline read: %v", err)
	}

	// A foreign MR in the SGL is rejected.
	wr = good()
	wr.SGL[0].MR = e.mrB
	if _, err := e.qpA.PostSend(0, wr); !errors.Is(err, ErrBadSGL) {
		t.Errorf("foreign MR: %v", err)
	}
}

func TestTransportRestrictions(t *testing.T) {
	e := newPair(t)
	ucA, _, err := Connect(e.ctxA, 1, e.ctxB, 1, UC)
	if err != nil {
		t.Fatal(err)
	}
	// UC supports WRITE...
	if _, err := ucA.PostSend(0, &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}); err != nil {
		t.Errorf("UC write should work: %v", err)
	}
	// ...but not READ or atomics (Section II-A).
	for _, op := range []Opcode{OpRead, OpCompSwap, OpFetchAdd} {
		wr := &SendWR{
			Opcode:     op,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
		if _, err := ucA.PostSend(0, wr); !errors.Is(err, ErrBadTransport) {
			t.Errorf("UC %s: err=%v, want ErrBadTransport", op, err)
		}
	}
	if _, _, err := Connect(e.ctxA, 1, e.ctxB, 1, UD); !errors.Is(err, ErrBadTransport) {
		t.Errorf("UD connect: %v", err)
	}
}

func TestDoorbellListBeatsIndividualPosts(t *testing.T) {
	mkWR := func(e *pairEnv) *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}
	const k = 8

	e1 := newPair(t)
	e1.qpA.PostSend(0, mkWR(e1)) // warm metadata caches
	wrs := make([]*SendWR, k)
	for i := range wrs {
		wrs[i] = mkWR(e1)
	}
	base := sim.Time(100 * sim.Microsecond)
	comps, err := e1.qpA.PostSendList(base, wrs)
	if err != nil {
		t.Fatal(err)
	}
	listDone := comps[len(comps)-1].Done - base

	e2 := newPair(t)
	e2.qpA.PostSend(0, mkWR(e2)) // warm metadata caches
	var seqDone sim.Time
	now := base
	for i := 0; i < k; i++ {
		c, err := e2.qpA.PostSend(now, mkWR(e2))
		if err != nil {
			t.Fatal(err)
		}
		seqDone = c.Done - base
		now += 300 // one MMIO's worth of CPU between posts
	}
	if listDone >= seqDone {
		t.Fatalf("doorbell list (%v) should finish before %d individual posts (%v)", listDone, k, seqDone)
	}
}

func TestInlineWriteIsFaster(t *testing.T) {
	e := newPair(t)
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	// Warm caches.
	if _, err := e.qpA.PostSend(0, wr); err != nil {
		t.Fatal(err)
	}
	base := sim.Time(100 * sim.Microsecond)
	plain, err := e.qpA.PostSend(base, wr)
	if err != nil {
		t.Fatal(err)
	}
	inlineWR := *wr
	inlineWR.Inline = true
	base2 := plain.Done + 100*sim.Microsecond
	inl, err := e.qpA.PostSend(base2, &inlineWR)
	if err != nil {
		t.Fatal(err)
	}
	if inl.Done-base2 >= plain.Done-base {
		t.Fatalf("inline write latency %v should beat non-inline %v", inl.Done-base2, plain.Done-base)
	}
}

func TestRCOrderingInCQ(t *testing.T) {
	e := newPair(t)
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	var last sim.Time
	for i := 0; i < 10; i++ {
		wr.ID = uint64(i)
		c, err := e.qpA.PostSend(sim.Time(i)*100, wr)
		if err != nil {
			t.Fatal(err)
		}
		if c.Done < last {
			t.Fatal("completions must be delivered in order on one QP")
		}
		last = c.Done
	}
	cqes := e.qpA.SendCQ().Poll(last, 100)
	if len(cqes) != 10 {
		t.Fatalf("polled %d CQEs, want 10", len(cqes))
	}
	for i, c := range cqes {
		if c.WRID != uint64(i) {
			t.Fatalf("CQE %d has WRID %d", i, c.WRID)
		}
	}
}

func TestCQPollRespectsTime(t *testing.T) {
	e := newPair(t)
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	c, err := e.qpA.PostSend(0, wr)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.qpA.SendCQ().Poll(c.Done-1, 10); len(got) != 0 {
		t.Fatal("CQE visible before completion time")
	}
	if got := e.qpA.SendCQ().Poll(c.Done, 10); len(got) != 1 {
		t.Fatal("CQE not visible at completion time")
	}
	if got := e.qpA.SendCQ().Poll(c.Done, 10); len(got) != 0 {
		t.Fatal("CQE polled twice")
	}
}

func TestPostOnDisconnectedQP(t *testing.T) {
	e := newPair(t)
	q := &QP{qpState: qpState{ctx: e.ctxA}}
	if _, err := q.PostSend(0, &SendWR{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err=%v, want ErrNotConnected", err)
	}
}

func TestMRDeregistration(t *testing.T) {
	e := newPair(t)
	e.ctxB.DeregisterMR(e.mrB)
	_, err := e.qpA.PostSend(0, &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	})
	if !errors.Is(err, ErrBadRKey) {
		t.Fatalf("err=%v, want ErrBadRKey after deregistration", err)
	}
}

// Figure 1 calibration: small WRITE latency ~1.16us, READ ~2.0us; one-QP
// WRITE throughput ~4.7 MOPS, READ ~4.2 MOPS; remote atomics 2.2-2.5 MOPS.
func TestFigure1Calibration(t *testing.T) {
	e := newPair(t)
	writeWR := func() *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}
	readWR := func() *SendWR {
		wr := writeWR()
		wr.Opcode = OpRead
		return wr
	}
	// Warm all metadata caches.
	e.qpA.PostSend(0, writeWR())
	e.qpA.PostSend(0, readWR())

	base := sim.Time(sim.Millisecond)
	wlat := sim.RunOnce(func(t0 sim.Time) sim.Time {
		c, err := e.qpA.PostSend(t0, writeWR())
		if err != nil {
			t.Fatal(err)
		}
		return c.Done
	}, base)
	if wlat < 900 || wlat > 1500 {
		t.Errorf("32B write latency %v, want ~1.16us", wlat)
	}

	rlat := sim.RunOnce(func(t0 sim.Time) sim.Time {
		c, err := e.qpA.PostSend(t0, readWR())
		if err != nil {
			t.Fatal(err)
		}
		return c.Done
	}, base*2)
	if rlat < 1700 || rlat > 2400 {
		t.Errorf("32B read latency %v, want ~2.0us", rlat)
	}
	if rlat <= wlat {
		t.Errorf("read (%v) must be slower than write (%v)", rlat, wlat)
	}

	mops := func(mk func() *SendWR) float64 {
		env := newPair(t)
		wr := mk()
		// retarget onto the fresh environment
		wr.SGL[0].MR = env.mrA
		wr.SGL[0].Addr = env.mrA.Addr()
		wr.RemoteAddr = env.mrB.Addr()
		wr.RemoteKey = env.mrB.RKey()
		client := &sim.Client{
			PostCost: 150,
			Window:   16,
			Op: func(post sim.Time) sim.Time {
				c, err := env.qpA.PostSend(post, wr)
				if err != nil {
					t.Fatal(err)
				}
				return c.Done
			},
		}
		return sim.RunClosedLoop([]*sim.Client{client}, 20*sim.Millisecond).MOPS()
	}
	if w := mops(writeWR); w < 4.2 || w > 5.2 {
		t.Errorf("write throughput %.2f MOPS, want ~4.7", w)
	}
	if r := mops(readWR); r < 3.7 || r > 4.6 {
		t.Errorf("read throughput %.2f MOPS, want ~4.2", r)
	}
	atomWR := func() *SendWR {
		return &SendWR{
			Opcode:     OpFetchAdd,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 8, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
			CompareAdd: 1,
		}
	}
	if a := mops(atomWR); a < 2.1 || a > 2.6 {
		t.Errorf("atomic throughput %.2f MOPS, want 2.2-2.5", a)
	}
}

// Large payloads become bandwidth-bound: 8KB writes should approach the
// 40 Gbps wire limit, far below the small-payload op rate.
func TestLargePayloadBandwidthBound(t *testing.T) {
	e := newPair(t)
	const size = 8192
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: size, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}
	client := &sim.Client{
		PostCost: 150,
		Window:   16,
		Op: func(post sim.Time) sim.Time {
			c, err := e.qpA.PostSend(post, wr)
			if err != nil {
				t.Fatal(err)
			}
			return c.Done
		},
	}
	res := sim.RunClosedLoop([]*sim.Client{client}, 20*sim.Millisecond)
	gbps := res.Throughput() * size * 8 / 1e9
	if gbps < 28 || gbps > 41 {
		t.Errorf("8KB write goodput %.1f Gbps, want near 40Gbps wire limit", gbps)
	}
}

func TestUnsignaledSkipsCQE(t *testing.T) {
	e := newPair(t)
	wr := &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 32, MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
		Unsignaled: true,
	}
	comp, err := e.qpA.PostSend(0, wr)
	if err != nil {
		t.Fatal(err)
	}
	if e.qpA.SendCQ().Len() != 0 {
		t.Fatal("unsignaled WR must not generate a CQE")
	}
	// A following signaled WR generates one CQE and orders after it.
	wr2 := *wr
	wr2.Unsignaled = false
	comp2, err := e.qpA.PostSend(comp.Done, &wr2)
	if err != nil {
		t.Fatal(err)
	}
	if e.qpA.SendCQ().Len() != 1 {
		t.Fatal("signaled WR missing its CQE")
	}
	if comp2.Done <= comp.Done {
		t.Fatal("ordering violated")
	}
	// Skipping the CQE saves its generation cost.
	e2 := newPair(t)
	wrS := *wr
	wrS.SGL[0].MR = e2.mrA
	wrS.SGL[0].Addr = e2.mrA.Addr()
	wrS.RemoteAddr = e2.mrB.Addr()
	wrS.RemoteKey = e2.mrB.RKey()
	wrS.Unsignaled = false
	e2.qpA.PostSend(0, &wrS) // warm
	base := sim.Time(100 * sim.Microsecond)
	cS, _ := e2.qpA.PostSend(base, &wrS)
	wrU := wrS
	wrU.Unsignaled = true
	base2 := cS.Done + 100*sim.Microsecond
	cU, _ := e2.qpA.PostSend(base2, &wrU)
	if (cU.Done-base2)+CQECost != cS.Done-base {
		t.Fatalf("unsignaled should save exactly the CQE cost: %v vs %v", cU.Done-base2, cS.Done-base)
	}
}

// Property: a random sequence of WRITE/READ/FAA operations through the verbs
// stack leaves remote memory exactly as a plain reference model predicts.
func TestVerbsAgainstReferenceModelProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newPairQuiet()
		if e == nil {
			return false
		}
		const span = 4096
		ref := make([]byte, span)   // reference image of remote memory
		local := make([]byte, span) // reference image of local memory
		now := sim.Time(0)
		for i := 0; i < int(opsRaw%40)+1; i++ {
			size := rng.Intn(64) + 1
			lOff := rng.Intn(span - size)
			rOff := rng.Intn(span - size)
			switch rng.Intn(3) {
			case 0: // WRITE
				for j := 0; j < size; j++ {
					b := byte(rng.Intn(256))
					e.mrA.Region().Bytes()[lOff+j] = b
					local[lOff+j] = b
				}
				c, err := e.qpA.PostSend(now, &SendWR{
					Opcode:     OpWrite,
					SGL:        []SGE{{Addr: e.mrA.Addr() + mem.Addr(lOff), Length: size, MR: e.mrA}},
					RemoteAddr: e.mrB.Addr() + mem.Addr(rOff),
					RemoteKey:  e.mrB.RKey(),
				})
				if err != nil {
					return false
				}
				copy(ref[rOff:rOff+size], local[lOff:lOff+size])
				now = c.Done
			case 1: // READ
				c, err := e.qpA.PostSend(now, &SendWR{
					Opcode:     OpRead,
					SGL:        []SGE{{Addr: e.mrA.Addr() + mem.Addr(lOff), Length: size, MR: e.mrA}},
					RemoteAddr: e.mrB.Addr() + mem.Addr(rOff),
					RemoteKey:  e.mrB.RKey(),
				})
				if err != nil {
					return false
				}
				copy(local[lOff:lOff+size], ref[rOff:rOff+size])
				now = c.Done
			default: // FAA on an aligned word
				w := (rOff / 8) * 8
				add := rng.Uint64() % 1000
				c, err := e.qpA.PostSend(now, &SendWR{
					Opcode:     OpFetchAdd,
					SGL:        []SGE{{Addr: e.mrA.Addr() + mem.Addr((lOff/8)*8), Length: 8, MR: e.mrA}},
					RemoteAddr: e.mrB.Addr() + mem.Addr(w),
					RemoteKey:  e.mrB.RKey(),
					CompareAdd: add,
				})
				if err != nil {
					return false
				}
				var old uint64
				for j := 0; j < 8; j++ {
					old |= uint64(ref[w+j]) << (8 * j)
				}
				if c.OldValue != old {
					return false
				}
				nv := old + add
				for j := 0; j < 8; j++ {
					ref[w+j] = byte(nv >> (8 * j))
				}
				// The old value lands in local memory too.
				for j := 0; j < 8; j++ {
					local[(lOff/8)*8+j] = byte(old >> (8 * j))
				}
				now = c.Done
			}
		}
		return bytes.Equal(e.mrB.Region().Bytes()[:span], ref) &&
			bytes.Equal(e.mrA.Region().Bytes()[:span], local)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// newPairQuiet builds the pair env without a *testing.T (for quick.Check).
func newPairQuiet() *pairEnv {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil
	}
	ctxA := NewContext(cl.Machine(0))
	ctxB := NewContext(cl.Machine(1))
	qpA, qpB, err := Connect(ctxA, 1, ctxB, 1, RC)
	if err != nil {
		return nil
	}
	mrA := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, 1<<20, 0))
	mrB := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, 1<<20, 0))
	return &pairEnv{cl: cl, ctxA: ctxA, ctxB: ctxB, qpA: qpA, qpB: qpB, mrA: mrA, mrB: mrB}
}

// UC writes complete locally (no ACK exists on unreliable connections), so
// their completion beats the RC round trip while the data still lands.
func TestUCWriteCompletesLocally(t *testing.T) {
	e := newPair(t)
	ucA, _, err := Connect(e.ctxA, 1, e.ctxB, 1, UC)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(qp *QP) *SendWR {
		return &SendWR{
			Opcode:     OpWrite,
			SGL:        []SGE{{Addr: e.mrA.Addr(), Length: 64, MR: e.mrA}},
			RemoteAddr: e.mrB.Addr(),
			RemoteKey:  e.mrB.RKey(),
		}
	}
	// Warm both QPs.
	if _, err := ucA.PostSend(0, mk(ucA)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.qpA.PostSend(0, mk(e.qpA)); err != nil {
		t.Fatal(err)
	}
	base := sim.Time(100 * sim.Microsecond)
	copy(e.mrA.Region().Bytes(), "uc write payload test bytes!....")
	ucComp, err := ucA.PostSend(base, mk(ucA))
	if err != nil {
		t.Fatal(err)
	}
	base2 := ucComp.Done + 100*sim.Microsecond
	rcComp, err := e.qpA.PostSend(base2, mk(e.qpA))
	if err != nil {
		t.Fatal(err)
	}
	if ucComp.Done-base >= rcComp.Done-base2 {
		t.Fatalf("UC write (%v) should complete before RC write (%v)", ucComp.Done-base, rcComp.Done-base2)
	}
	if string(e.mrB.Region().Bytes()[:8]) != "uc write" {
		t.Fatal("UC write data did not land")
	}
}

// A WRITE whose SGE is longer than a sparse region's physical backing fails
// with an error from PostSend instead of crashing the process, and leaves
// the QP usable.
func TestWriteFromSparseSGELongerThanBackingFails(t *testing.T) {
	e := newPair(t)
	sparse, err := e.cl.Machine(0).Space().AllocSparse(1, 64<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mr := e.ctxA.MustRegisterMR(sparse)
	big := e.ctxB.MustRegisterMR(e.cl.Machine(1).MustAlloc(1, 2<<20, 0))
	_, err = e.qpA.PostSend(0, &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: mr.Addr() + 8<<20, Length: 2 << 20, MR: mr}},
		RemoteAddr: big.Addr(),
		RemoteKey:  big.RKey(),
	})
	if err == nil || !strings.Contains(err.Error(), "backing") {
		t.Fatalf("WRITE from an SGE longer than the sparse backing: err = %v, want a backing error", err)
	}
	msg := []byte("still usable")
	copy(e.mrA.Region().Bytes(), msg)
	if _, err := e.qpA.PostSend(0, &SendWR{
		Opcode:     OpWrite,
		SGL:        []SGE{{Addr: e.mrA.Addr(), Length: len(msg), MR: e.mrA}},
		RemoteAddr: e.mrB.Addr(),
		RemoteKey:  e.mrB.RKey(),
	}); err != nil {
		t.Fatalf("QP unusable after the failed WRITE: %v", err)
	}
	if got := e.mrB.Region().Bytes()[:len(msg)]; !bytes.Equal(got, msg) {
		t.Fatalf("remote memory = %q, want %q", got, msg)
	}
}
