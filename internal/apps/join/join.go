// Package join implements the paper's third case study (Section IV-D): a
// distributed hash join in two phases. The partition phase shuffles both
// relations to their owner executors over the RDMA shuffle operator (SGL
// batching, Section IV-C); the build-probe phase builds a hash table (the
// stand-in for the paper's TBB concurrent_hash_map) from the inner
// relation's partition and probes it with the outer relation's tuples.
//
// Execution time is virtual: the partition phase runs on the simulated
// cluster, the build-probe phase is charged per tuple from the local-memory
// cost model. The data movement is real, so the join result can be checked
// against a nested-loop reference.
package join

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// Config describes a distributed join run.
type Config struct {
	Executors int  // θ in Figure 16/17 (1 = single-machine baseline)
	Batch     int  // λ: SGL batch size of the partition phase
	NUMA      bool // NUMA-aware executor/port placement

	// Per-tuple local costs, calibrated so the single-machine baseline on
	// 16M tuples lands near the paper's 6.46 s.
	PartitionCost sim.Duration // hash + dispatch per tuple
	BuildCost     sim.Duration // hash map insert per tuple
	ProbeCost     sim.Duration // hash map lookup per tuple
}

// DefaultConfig returns the Figure 16 calibration.
func DefaultConfig() Config {
	return Config{
		Executors:     4,
		Batch:         4,
		NUMA:          true,
		PartitionCost: 45,
		BuildCost:     210,
		ProbeCost:     150,
	}
}

// tupleBytes is the wire size of one tuple (key + payload).
const tupleBytes = 16

// fibonacci is 2^64/φ: multiplying a key by it spreads the key's bits into
// the product's high bits, which route tuples and index the build table.
const fibonacci = 0x9E3779B97F4A7C15

// Result reports one join execution.
type Result struct {
	Matches   int64        // number of matching (inner, outer) pairs
	Elapsed   sim.Duration // virtual end-to-end execution time
	Partition sim.Duration // partition-phase portion
	CPU       sim.Duration // total requester CPU charged
}

// Run executes the join of inner and outer on the cluster and returns the
// result. The executor count must not exceed machines x sockets.
func Run(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) (Result, error) {
	if cfg.Executors < 1 {
		return Result{}, fmt.Errorf("join: need at least one executor")
	}
	if cfg.Executors == 1 {
		return runSingle(cl, cfg, inner, outer), nil
	}
	if cfg.Batch < 1 {
		return Result{}, fmt.Errorf("join: batch must be >= 1")
	}
	return runDistributed(cl, cfg, inner, outer)
}

// runSingle is the native single-machine baseline: one thread partitions,
// builds and probes locally.
func runSingle(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) Result {
	table := newBuildTable(len(inner))
	for _, t := range inner {
		table.insert(t.Key)
	}
	var matches int64
	for _, t := range outer {
		matches += table.probe(t.Key)
	}
	// Partitioning degenerates to a scan, but the hash table work stands.
	elapsed := sim.Duration(len(inner)+len(outer))*cfg.PartitionCost +
		buildProbeTime(cfg, cl.Machine(0).Topology().Params, len(inner), len(outer))
	return Result{Matches: matches, Elapsed: elapsed, CPU: elapsed}
}

// buildProbeTime charges the build-probe phase: one hash table insert and a
// random local write per inner tuple, one lookup and a random local read
// per outer tuple.
func buildProbeTime(cfg Config, tp topo.Params, inners, outers int) sim.Duration {
	return sim.Duration(inners)*(cfg.BuildCost+tp.LocalAccessTime(topo.Write, topo.Rand, tupleBytes, false)) +
		sim.Duration(outers)*(cfg.ProbeCost+tp.LocalAccessTime(topo.Read, topo.Rand, tupleBytes, false))
}

// buildTable is the build side of the join: a flat, open-addressed
// key -> count table with linear probing. It is sized up front for the
// number of inserts, so it never grows and stays at most half full. Each
// executor's build-probe runs single-threaded, so it takes no locks.
type buildTable struct {
	slots []buildSlot
	shift uint // 64 - log2(len(slots)): the index is the hash's top bits
}

type buildSlot struct {
	key uint64
	n   int64 // inner tuples under key; 0 marks an empty slot
}

// newBuildTable returns a table for up to n inserts.
func newBuildTable(n int) buildTable {
	size, shift := 8, uint(61)
	for size < 2*n {
		size <<= 1
		shift--
	}
	return buildTable{slots: make([]buildSlot, size), shift: shift}
}

// find returns key's slot, or the empty slot where key would go.
func (t buildTable) find(key uint64) *buildSlot {
	mask := len(t.slots) - 1
	for i := int(key * fibonacci >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.n == 0 || s.key == key {
			return s
		}
	}
}

func (t buildTable) insert(key uint64) {
	s := t.find(key)
	s.key = key
	s.n++
}

// probe reports how many inserted tuples carry key.
func (t buildTable) probe(key uint64) int64 { return t.find(key).n }

// ownerOf routes a key to its owning executor.
func ownerOf(key uint64, executors int) int {
	return int((key * fibonacci >> 21) % uint64(executors))
}

// share returns executor e's slice of a relation in the partition phase.
func share(rel []workload.Tuple, e, executors int) []workload.Tuple {
	return rel[e*len(rel)/executors : (e+1)*len(rel)/executors]
}

// route is one executor's send path to one remote destination.
type route struct {
	batcher *core.Batcher
	proxy   sim.Duration // proxy-socket hop charged before each batch
	cq      *verbs.CQ    // send CQ of the batcher's QP
}

// executorState is the per-executor partition-phase machinery.
type executorState struct {
	id      int
	socket  topo.SocketID // socket holding the executor's buffers
	coreSck topo.SocketID // socket the executor's thread runs on
	ctx     *verbs.Context
	engine  *core.Engine
	peerIdx []int

	outMR   *verbs.MR
	outHead int
	staging *verbs.MR
	inMR    *verbs.MR // one receive ring of ringBytes per source
	routes  []route
	pend    [][]core.Fragment
	offs    []int
	recvCnt []int // tuples received per source (tracked locally for parse)
	inners  int   // inner tuples routed here (sizes the build table)

	cpu  sim.Duration
	last sim.Time // completion of this executor's latest partition action
	err  error    // first partition-phase failure (e.g. a QP gone to error state)
}

// runDistributed runs the partition phase on the simulated fabric and then
// the build-probe phase on the received partitions.
func runDistributed(cl *cluster.Cluster, cfg Config, inner, outer []workload.Tuple) (Result, error) {
	sockets := cl.Machine(0).Topology().Sockets()
	if cfg.Executors > cl.Size()*sockets {
		return Result{}, fmt.Errorf("join: %d executors exceed cluster capacity %d", cfg.Executors, cl.Size()*sockets)
	}
	ringBytes := ringSizeFor(inner, outer, cfg.Executors)
	ctxs := map[*cluster.Machine]*verbs.Context{}
	ctxFor := func(m *cluster.Machine) *verbs.Context {
		if ctxs[m] == nil {
			ctxs[m] = verbs.NewContext(m)
		}
		return ctxs[m]
	}

	execs := make([]*executorState, cfg.Executors)
	for i := range execs {
		m := cl.Machine(i % cl.Size())
		var socket, coreSck topo.SocketID
		if cfg.NUMA {
			// Machines first, then sockets; thread, buffers and port agree.
			socket = topo.SocketID((i / cl.Size()) % sockets)
			coreSck = socket
		} else {
			// NUMA-oblivious: buffers land on whichever socket the allocator
			// picks while the thread stays wherever the scheduler put it, so
			// about half the DMA traffic crosses QPI.
			socket = topo.SocketID(i % sockets)
			coreSck = 0
		}
		ex := &executorState{id: i, socket: socket, coreSck: coreSck, ctx: ctxFor(m)}
		in, err := m.Alloc(socket, cfg.Executors*ringBytes, 0)
		if err != nil {
			return Result{}, err
		}
		ex.inMR = ex.ctx.MustRegisterMR(in)
		out, err := m.Alloc(socket, 1<<20, 0)
		if err != nil {
			return Result{}, err
		}
		ex.outMR = ex.ctx.MustRegisterMR(out)
		stg, err := m.Alloc(socket, 1<<16, 0)
		if err != nil {
			return Result{}, err
		}
		ex.staging = ex.ctx.MustRegisterMR(stg)
		ex.pend = make([][]core.Fragment, cfg.Executors)
		ex.offs = make([]int, cfg.Executors)
		ex.recvCnt = make([]int, cfg.Executors)
		execs[i] = ex
	}
	// Connect engines/batchers.
	mode := core.Basic
	if cfg.NUMA {
		mode = core.Matched
	}
	for _, ex := range execs {
		var peers []*verbs.Context
		seen := map[*verbs.Context]int{}
		ex.peerIdx = make([]int, cfg.Executors)
		for j, other := range execs {
			if other.ctx == ex.ctx {
				ex.peerIdx[j] = -1
				continue
			}
			pi, ok := seen[other.ctx]
			if !ok {
				pi = len(peers)
				peers = append(peers, other.ctx)
				seen[other.ctx] = pi
			}
			ex.peerIdx[j] = pi
		}
		if len(peers) > 0 {
			eng, err := core.NewEngine(ex.ctx, peers, mode)
			if err != nil {
				return Result{}, err
			}
			ex.engine = eng
		}
		ex.routes = make([]route, cfg.Executors)
		for j, other := range execs {
			if ex.peerIdx[j] < 0 {
				continue
			}
			qp, extra := ex.engine.QP(ex.coreSck, ex.peerIdx[j], other.socket)
			b, err := core.NewBatcher(core.SGL, qp, ex.outMR, ex.staging, other.inMR)
			if err != nil {
				return Result{}, err
			}
			ex.routes[j] = route{batcher: b, proxy: extra, cq: qp.SendCQ()}
		}
	}

	// Partition phase: each executor streams its share of the inner relation,
	// then of the outer one. Executors run as closed-loop clients; each op
	// partitions one tuple.
	var clients []*sim.Client
	for _, ex := range execs {
		in, out := share(inner, ex.id, cfg.Executors), share(outer, ex.id, cfg.Executors)
		if len(in)+len(out) == 0 {
			continue // MaxOps 0 would mean "run until the horizon"
		}
		pos := 0
		clients = append(clients, &sim.Client{
			PostCost: 50,
			Window:   4,
			MaxOps:   int64(len(in) + len(out)),
			Op: func(post sim.Time) sim.Time {
				i := pos
				pos++
				if ex.err != nil {
					// A previous op failed (QP in error state): burn the
					// remaining stream without touching the wire so the loop
					// drains and the error surfaces below.
					return post
				}
				t, isInner := workload.Tuple{}, i < len(in)
				if isInner {
					t = in[i]
				} else {
					t = out[i-len(in)]
				}
				d, err := ex.partitionOne(post, cfg, ringBytes, execs, t, isInner)
				if err != nil {
					ex.err = err
					return post
				}
				if d > ex.last {
					ex.last = d
				}
				return d
			},
		})
	}
	sim.RunClosedLoop(clients, sim.MaxTime/4)
	for _, ex := range execs {
		if ex.err != nil {
			return Result{}, fmt.Errorf("join: executor %d partition phase: %w", ex.id, ex.err)
		}
	}
	// Drain pending batches.
	var partitionEnd sim.Time
	for _, ex := range execs {
		d, err := ex.flushAll(ex.last, ringBytes, execs)
		if err != nil {
			return Result{}, err
		}
		if d > partitionEnd {
			partitionEnd = d
		}
	}

	// Build-probe phase: parallel across executors; the phase ends when the
	// slowest executor finishes (Figure 16b's scalability view).
	tp := cl.Machine(0).Topology().Params
	var wg sync.WaitGroup
	times := make([]sim.Duration, len(execs))
	matches := make([]int64, len(execs))
	for i, ex := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i], matches[i] = ex.buildProbe(cfg, tp, ringBytes)
		}()
	}
	wg.Wait()
	var total Result
	var worst sim.Duration
	for i := range execs {
		total.Matches += matches[i]
		if times[i] > worst {
			worst = times[i]
		}
		total.CPU += execs[i].cpu + times[i]
	}
	total.Partition = sim.Duration(partitionEnd)
	total.Elapsed = sim.Duration(partitionEnd) + worst
	return total, nil
}

// ringSizeFor sizes every per-(src,dst) receive ring to the largest flow
// any source sends any destination, rounded up to whole pages. Every ring
// then starts on a page boundary at src*ringBytes, whatever the flows.
func ringSizeFor(inner, outer []workload.Tuple, executors int) int {
	flow := make([]int, executors*executors)
	most := 0
	for src := 0; src < executors; src++ {
		for _, rel := range [2][]workload.Tuple{inner, outer} {
			for _, t := range share(rel, src, executors) {
				f := &flow[src*executors+ownerOf(t.Key, executors)]
				*f++
				most = max(most, *f)
			}
		}
	}
	return max(mem.PageSize, (most*tupleBytes+mem.PageSize-1)&^(mem.PageSize-1))
}

// partitionOne routes one tuple: serialize into the arrival ring, batch per
// destination, flush full batches via SGL.
func (ex *executorState) partitionOne(now sim.Time, cfg Config, ringBytes int, execs []*executorState, t workload.Tuple, isInner bool) (sim.Time, error) {
	ex.cpu += cfg.PartitionCost
	now += cfg.PartitionCost
	dst := ownerOf(t.Key, len(execs))
	// Wire format: key with the low bit of payload marking inner/outer.
	if ex.outHead+tupleBytes > ex.outMR.Region().Size() {
		ex.outHead = 0
	}
	buf := ex.outMR.Region().Bytes()[ex.outHead : ex.outHead+tupleBytes]
	binary.LittleEndian.PutUint64(buf, t.Key)
	tag := t.Payload &^ 1
	if isInner {
		tag |= 1
		execs[dst].inners++
	}
	binary.LittleEndian.PutUint64(buf[8:], tag)
	frag := core.Fragment{Addr: ex.outMR.Addr() + mem.Addr(ex.outHead), Length: tupleBytes}
	ex.outHead += tupleBytes

	if dst == ex.id || ex.peerIdx[dst] < 0 {
		// Local partition: deliver through memory.
		dex := execs[dst]
		cost := dex.deliverLocal(ex, buf, ringBytes)
		ex.cpu += cost
		return now + cost, nil
	}
	ex.pend[dst] = append(ex.pend[dst], frag)
	if len(ex.pend[dst]) < cfg.Batch {
		return now, nil
	}
	return ex.flushDst(now, ringBytes, execs, dst)
}

func (ex *executorState) flushDst(now sim.Time, ringBytes int, execs []*executorState, dst int) (sim.Time, error) {
	frags := ex.pend[dst]
	ex.pend[dst] = ex.pend[dst][:0]
	bytes := len(frags) * tupleBytes
	dex := execs[dst]
	base := ex.id * ringBytes
	if ex.offs[dst]+bytes > ringBytes {
		return 0, fmt.Errorf("join: ring overflow for dst %d", dst)
	}
	remote := dex.inMR.Addr() + mem.Addr(base+ex.offs[dst])
	ex.offs[dst] += bytes
	r := &ex.routes[dst]
	res, err := r.batcher.WriteBatch(now+r.proxy, frags, remote)
	if err != nil {
		return 0, err
	}
	// Nothing waits on the send CQEs, so reap them here rather than let the
	// queue grow for the whole run; virtual time does not see the poll.
	for {
		if _, ok := r.cq.PollOne(res.Done); !ok {
			break
		}
	}
	ex.cpu += res.CPU
	dex.recvCnt[ex.id] += len(frags)
	return res.Done, nil
}

func (ex *executorState) flushAll(now sim.Time, ringBytes int, execs []*executorState) (sim.Time, error) {
	done := now
	for dst := range ex.pend {
		if len(ex.pend[dst]) == 0 {
			continue
		}
		d, err := ex.flushDst(now, ringBytes, execs, dst)
		if err != nil {
			return 0, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}

// deliverLocal stores a tuple arriving from a same-context source.
func (ex *executorState) deliverLocal(src *executorState, entry []byte, ringBytes int) sim.Duration {
	base := src.id * ringBytes
	off := ex.recvCnt[src.id] * tupleBytes
	copy(ex.inMR.Region().Bytes()[base+off:], entry)
	ex.recvCnt[src.id]++
	// Same-machine handoff cost.
	return 80
}

// buildProbe builds the table from the inner tuples in the executor's
// receive rings, then probes it with the outer ones on a second scan,
// returning the phase's virtual duration and match count.
func (ex *executorState) buildProbe(cfg Config, tp topo.Params, ringBytes int) (sim.Duration, int64) {
	table := newBuildTable(ex.inners)
	rings := ex.inMR.Region().Bytes()
	var matches int64
	outers := 0
	for _, build := range [2]bool{true, false} {
		for src, n := range ex.recvCnt {
			ring := rings[src*ringBytes : src*ringBytes+n*tupleBytes]
			for off := 0; off < len(ring); off += tupleBytes {
				key, isInner := binary.LittleEndian.Uint64(ring[off:]), ring[off+8]&1 == 1
				switch {
				case build && isInner:
					table.insert(key)
				case !build && !isInner:
					matches += table.probe(key)
					outers++
				}
			}
		}
	}
	return buildProbeTime(cfg, tp, ex.inners, outers), matches
}
