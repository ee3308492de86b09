package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// smallop: four closed-loop clients, each on its own RC QP from machine 0
// to machine 1, post 64 B one-sided ops (WRITE:READ:FETCH_ADD = 4:3:1) at
// seeded random offsets of one registered region, and drain their send CQ
// after every post. It measures the per-op host cost of the op pipeline:
// verbs posting, the rnic caches, fabric.Send and kernel dispatch.
//
// The points cross single posts with 8-WR doorbell lists, and a 4 MiB region
// (inside the modelled 1024-entry translation cache) with a 64 MiB one (which
// thrashes it).

type smallopPoint struct {
	list   int // WRs per doorbell
	region int // registered remote bytes
}

var smallopPoints = []smallopPoint{
	{list: 1, region: 4 << 20},
	{list: 8, region: 4 << 20},
	{list: 1, region: 64 << 20},
	{list: 8, region: 64 << 20},
}

const (
	smallopClients = 4
	smallopHorizon = 20 * sim.Millisecond
	smallopSize    = 64      // payload bytes, and the stride of remote slots
	smallopCounter = 64      // FETCH_ADD counter slots at the start of the region
	smallopOps     = 1 << 15 // pre-generated ops per client, reused cyclically
	smallopSample  = 16      // every 16th remote slot is shadowed
	smallopPort    = 1
)

// smallop op kinds.
const (
	opWrite uint8 = iota
	opRead
	opFAA
)

// smallopOp is one generated op: a kind and a remote slot.
type smallopOp struct {
	slot uint32
	kind uint8
}

// genSmallop draws a client's ops: kinds 4:3:1, WRITE and READ slots uniform
// over the data slots, FETCH_ADD slots uniform over the counters.
func genSmallop(rng *rand.Rand, slots int) []smallopOp {
	ops := make([]smallopOp, smallopOps)
	for i := range ops {
		switch r := rng.Intn(8); {
		case r < 4:
			ops[i] = smallopOp{kind: opWrite, slot: uint32(smallopCounter + rng.Intn(slots-smallopCounter))}
		case r < 7:
			ops[i] = smallopOp{kind: opRead, slot: uint32(smallopCounter + rng.Intn(slots-smallopCounter))}
		default:
			ops[i] = smallopOp{kind: opFAA, slot: uint32(rng.Intn(smallopCounter))}
		}
	}
	return ops
}

// writeShadow keeps a copy of the last payload written to every sampled
// remote slot, in the order the WRITEs executed.
type writeShadow struct {
	base    mem.Addr
	data    []byte // smallopSize bytes per sampled slot
	written []bool
}

func newWriteShadow(base mem.Addr, slots int) *writeShadow {
	n := (slots + smallopSample - 1) / smallopSample
	return &writeShadow{base: base, data: make([]byte, n*smallopSize), written: make([]bool, n)}
}

func (w *writeShadow) note(slot uint32, payload []byte) {
	if slot%smallopSample != 0 {
		return
	}
	i := slot / smallopSample
	copy(w.data[int(i)*smallopSize:], payload)
	w.written[i] = true
}

// checkShadow compares every shadowed slot with the remote memory.
func checkShadow(space *mem.Space, w *writeShadow) error {
	got := make([]byte, smallopSize)
	for i, ok := range w.written {
		if !ok {
			continue
		}
		addr := w.base + mem.Addr(i*smallopSample*smallopSize)
		if err := space.ReadAt(addr, got); err != nil {
			return err
		}
		if want := w.data[i*smallopSize : (i+1)*smallopSize]; !bytes.Equal(got, want) {
			return fmt.Errorf("smallop: remote slot %d holds %x, last WRITE was %x", i*smallopSample, got[:8], want[:8])
		}
	}
	return nil
}

// checkCounters checks that the FETCH_ADD counter words sum to the adds
// issued.
func checkCounters(space *mem.Space, base mem.Addr, adds uint64) error {
	var sum uint64
	word := make([]byte, 8)
	for i := 0; i < smallopCounter; i++ {
		if err := space.ReadAt(base+mem.Addr(i*smallopSize), word); err != nil {
			return err
		}
		sum += binary.LittleEndian.Uint64(word)
	}
	if sum != adds {
		return fmt.Errorf("smallop: counters sum to %d, %d FETCH_ADDs issued", sum, adds)
	}
	return nil
}

// smallopClient is one client's QP, buffers and op stream.
type smallopClient struct {
	qp     *verbs.QP
	ops    []smallopOp
	next   int
	wrs    []*verbs.SendWR // list slots, reused on every post
	local  []byte          // this client's slice of the local region
	posted uint64          // WRs posted
	polled uint64          // CQEs polled
	adds   uint64          // FETCH_ADDs posted
	failed uint64          // failed posts and error completions
}

// smallopEnv is one point's cluster, ready to run.
type smallopEnv struct {
	cl      *cluster.Cluster
	eng     *cluster.Engine
	remote  *mem.Region
	clients []*smallopClient
	shadow  *writeShadow
	tag     uint64   // payload tag of the latest WRITE
	latest  sim.Time // latest completion seen: the virtual horizon
}

// buildSmallop sets up one point: a 2-machine cluster, the registered
// regions, four RC QPs and the op streams.
func buildSmallop(s *sweep, seed int64, pi int, pt smallopPoint) (*smallopEnv, error) {
	tr := s.spans
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	sp := tr.begin(spanClusterNew)
	cl, err := cluster.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ma, mb := cl.Machine(0), cl.Machine(1)
	ctxA, ctxB := verbs.NewContext(ma), verbs.NewContext(mb)
	env := &smallopEnv{cl: cl, eng: cl.NewEngine(1)}

	alloc := func(m *cluster.Machine, size int) (*mem.Region, error) {
		sp := tr.begin(spanMemAlloc)
		r, err := m.Alloc(topo.SocketID(smallopPort), size, 0)
		tr.end(sp)
		s.virt.memAllocBytes += uint64(size)
		return r, err
	}
	register := func(ctx *verbs.Context, r *mem.Region) (*verbs.MR, error) {
		sp := tr.begin(spanVerbsRegister)
		mr, err := ctx.RegisterMR(r)
		tr.end(sp)
		return mr, err
	}
	slotBytes := pt.list * smallopSize
	rl, err := alloc(ma, smallopClients*slotBytes)
	if err != nil {
		return nil, err
	}
	rr, err := alloc(mb, pt.region)
	if err != nil {
		return nil, err
	}
	local, err := register(ctxA, rl)
	if err != nil {
		return nil, err
	}
	remote, err := register(ctxB, rr)
	if err != nil {
		return nil, err
	}
	env.remote = rr
	env.shadow = newWriteShadow(rr.Addr(), pt.region/smallopSize)

	sp = tr.begin(spanWorkloadGen)
	streams := make([][]smallopOp, smallopClients)
	for c := range streams {
		rng := rand.New(rand.NewSource(seed*1000 + int64(pi*smallopClients+c)))
		streams[c] = genSmallop(rng, pt.region/smallopSize)
	}
	tr.end(sp)

	for c := 0; c < smallopClients; c++ {
		sp := tr.begin(spanVerbsConnect)
		qp, _, err := verbs.Connect(ctxA, smallopPort, ctxB, smallopPort, verbs.RC)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sc := &smallopClient{qp: qp, ops: streams[c], local: rl.Bytes()[c*slotBytes : (c+1)*slotBytes]}
		for j := 0; j < pt.list; j++ {
			sc.wrs = append(sc.wrs, &verbs.SendWR{
				ID:        uint64(j),
				SGL:       []verbs.SGE{{Addr: local.Addr() + mem.Addr(c*slotBytes+j*smallopSize), MR: local}},
				RemoteKey: remote.RKey(),
			})
		}
		env.clients = append(env.clients, sc)
		env.eng.Add(&sim.Client{PostCost: 150, Window: 1, Op: env.op(s, sc)}, ma, mb)
	}
	return env, nil
}

// op is client sc's closed-loop operation: post the next list of WRs, then
// drain the send CQ up to the list's completion.
func (env *smallopEnv) op(s *sweep, sc *smallopClient) sim.Op {
	tr := s.spans
	return func(post sim.Time) sim.Time {
		sp := tr.begin(spanClosure)
		defer tr.end(sp)
		for j, wr := range sc.wrs {
			o := sc.ops[sc.next]
			sc.next = (sc.next + 1) % len(sc.ops)
			wr.RemoteAddr = env.remote.Addr() + mem.Addr(int(o.slot)*smallopSize)
			buf := sc.local[j*smallopSize : (j+1)*smallopSize]
			switch o.kind {
			case opWrite:
				wr.Opcode, wr.SGL[0].Length = verbs.OpWrite, smallopSize
				env.tag++
				workload.FillValue(buf, env.tag)
			case opRead:
				wr.Opcode, wr.SGL[0].Length = verbs.OpRead, smallopSize
			case opFAA:
				wr.Opcode, wr.SGL[0].Length, wr.CompareAdd = verbs.OpFetchAdd, 8, 1
			}
		}
		psp := tr.begin(spanVerbsPost)
		comps, err := sc.qp.PostSendList(post, sc.wrs)
		tr.end(psp)
		sc.posted += uint64(len(sc.wrs))
		if err != nil {
			sc.failed++
			return post
		}
		done := post
		for j, c := range comps {
			done = sim.Max(done, c.Done)
			switch wr := sc.wrs[j]; wr.Opcode {
			case verbs.OpWrite:
				env.shadow.note(uint32((wr.RemoteAddr-env.remote.Addr())/smallopSize), sc.local[j*smallopSize:(j+1)*smallopSize])
			case verbs.OpFetchAdd:
				sc.adds++
			}
		}
		for {
			psp := tr.begin(spanVerbsPoll)
			cqe, ok := sc.qp.SendCQ().PollOne(done)
			tr.end(psp)
			if !ok {
				break
			}
			sc.polled++
			if cqe.Status != verbs.StatusOK {
				sc.failed++
			}
		}
		env.latest = sim.Max(env.latest, done)
		return done
	}
}

// runSmallop runs every smallop point once.
func runSmallop(s *sweep, seed int64) error {
	for pi, pt := range smallopPoints {
		root := s.spans.startPoint(pi)
		t0 := time.Now()
		env, err := buildSmallop(s, seed, pi, pt)
		s.setup += time.Since(t0)
		if err != nil {
			return fmt.Errorf("smallop point %d set-up: %w", pi, err)
		}
		tm := s.timedStart()
		sp := s.spans.begin(spanSimRun)
		res := env.eng.Run(smallopHorizon)
		s.spans.end(sp)
		s.timedStop(tm)
		s.spans.end(root)
		if err := env.check(s, fmt.Sprintf("smallop/%d", pi), res, smallopHorizon); err != nil {
			return err
		}
	}
	return nil
}

// check folds the point's virtual results into the sweep and runs its
// correctness and conservation checks.
func (env *smallopEnv) check(s *sweep, label string, res sim.Result, horizon sim.Time) error {
	s.recordRun(label, res)
	before := s.virt.wrs
	if err := s.finishCluster(label, env.cl, sim.Max(horizon, env.latest)); err != nil {
		return err
	}
	var posted, polled, adds, failed uint64
	for _, c := range env.clients {
		posted += c.posted
		polled += c.polled
		adds += c.adds
		failed += c.failed
	}
	s.virt.failedWRs += failed
	if failed > 0 {
		return fmt.Errorf("%s: %d posts failed or completed in error", label, failed)
	}
	if executed := s.virt.wrs - before; posted != polled || polled != executed {
		return fmt.Errorf("%s: %d WRs posted, %d CQEs polled, %d WQEs executed", label, posted, polled, executed)
	}
	space := env.cl.Machine(1).Space()
	if err := checkCounters(space, env.remote.Addr(), adds); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	if err := checkShadow(space, env.shadow); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return nil
}
