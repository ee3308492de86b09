// The op-pipeline engine: the one implementation of the requester/responder
// stage walk every verb takes (paper Sections III-A..III-E) —
//
//	doorbell MMIO -> WQE fetch -> gather DMA -> QP pipeline ->
//	execution unit -> wire -> responder -> CQE
//
// RC, UC and UD queue pairs all post through postList/executeOne below; the
// transport only selects branch points inside the walk (which metadata is
// touched, how the pipeline stage is priced, when the requester considers
// the operation complete). Observers subscribe to stage transitions without
// forking the timing code: Trace is just one listener.
package verbs

import (
	"encoding/binary"
	"fmt"

	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
)

// StageObserver receives a notification each time an operation crosses a
// pipeline stage boundary. Observers are passive: they must not mutate
// simulation state, and the walk's timing is identical with or without one
// attached.
type StageObserver interface {
	ObserveStage(s Stage, at sim.Time)
}

// PostObserver receives one notification per doorbell list after the list
// finishes executing: the posting time, the list's WR count and total payload
// bytes, and the completion time of its last WR. Like StageObserver it is
// strictly passive — it must not mutate simulation state, and the walk's
// timing and allocations are identical with or without one attached. This is
// the measurement feed the adaptive per-QP controllers hang off the post
// path.
type PostObserver interface {
	ObservePost(post sim.Time, wrs, bytes int, done sim.Time)
}

// qpState is the queue-pair state shared by connected (QP) and datagram
// (UDQP) queue pairs: identity, port/core binding, the per-QP processing
// pipeline, the completion/receive queues, and the attached stage observer.
type qpState struct {
	id        uint64
	ctx       *Context
	transport Transport
	port      int
	core      topo.SocketID // socket of the posting core
	pipeline  *sim.Resource // per-QP processing pipeline (Fig 1's 4.7 MOPS)
	sendCQ    *CQ
	recvCQ    *CQ
	recvQ     []RecvWR
	srq       *SRQ          // shared receive queue; inbound SENDs drain it instead of recvQ
	obs       StageObserver // active stage listener, else nil
	post      PostObserver  // per-post listener (adaptive controller), else nil
	met       *stageMetrics // telemetry bridge, else nil (cluster had no registry/timeline)
	state     State         // READY until reliability retries exhaust (or ForceError)
	policy    RetryPolicy   // reliability knobs; only read on a faulty fabric
	stats     QPStats       // reliability tally; all zero on a lossless fabric
	scratch   opScratch     // per-QP freelists for the allocation-free hot path

	// Connection-recovery state (see recovery.go). crashable is precomputed
	// at construction so the hot path pays exactly one boolean test when the
	// fault plan schedules no crashes.
	crashable     bool          // fault plan has crash windows: check at post
	logReplay     bool          // capture failed WRs for replay
	replayLog     []replayEntry // failed WRs awaiting replay, in failure order
	replayApplied bool          // transient: next WR replays an applied failure
	failedApplied bool          // transient: last failed WR had applied effects
}

// opScratch holds the per-QP reusable buffers of the op-pipeline hot path.
// The simulation kernel is single threaded per cluster, so at most one post
// is in flight per QP and every buffer is reset (re-sliced to length zero)
// at the next post. Aliasing contract: slices handed to callers out of this
// pool — the completions PostSendList returns — stay valid only until the
// next post on the same QP; callers that retain them must copy.
type opScratch struct {
	wrList   [1]*SendWR   // singleton doorbell list (UDQP.Send)
	sendWR   SendWR       // the datagram WR UDQP.Send rebuilds per send
	sges     []SGE        // SGL copy backing sendWR, so callers' SGLs stay on their stacks
	comps    []Completion // completions of the in-flight doorbell list
	drops    []bool       // UD drop flags, parallel to comps
	sizes    []int        // per-SGE size vectors for gather/scatter DMA
	payload  []byte       // staging for apply{Write,Read,Send} data movement
	segs     []int        // reliability-layer request segmentation
	respSegs []int        // reliability-layer response segmentation
}

// sgl returns a reusable length-n SGE slice (contents undefined).
func (s *opScratch) sgl(n int) []SGE {
	if cap(s.sges) < n {
		s.sges = make([]SGE, n)
	}
	return s.sges[:n]
}

// ints returns a reusable length-n int slice (contents undefined).
func (s *opScratch) ints(n int) []int {
	if cap(s.sizes) < n {
		s.sizes = make([]int, n)
	}
	return s.sizes[:n]
}

// bytes returns a reusable byte slice with length 0 and capacity >= n.
func (s *opScratch) bytes(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, 0, n)
	}
	return s.payload[:0]
}

// bytesN returns a reusable byte slice of length n (contents undefined).
func (s *opScratch) bytesN(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, 0, n)
	}
	return s.payload[:n]
}

// segments returns a reusable length-n int slice for request wire
// segmentation, distinct from sizes because the reliability engine holds its
// request segmentation across recovery rounds while DMA size vectors come
// and go.
func (s *opScratch) segments(n int) []int {
	if cap(s.segs) < n {
		s.segs = make([]int, n)
	}
	return s.segs[:n]
}

// respSegments is the response-leg counterpart of segments: the ACK/response
// segmentation must not alias the request segmentation, which the requester
// still holds for possible retransmission rounds (a loopback QP pair would
// otherwise clobber it).
func (s *opScratch) respSegments(n int) []int {
	if cap(s.respSegs) < n {
		s.respSegs = make([]int, n)
	}
	return s.respSegs[:n]
}

// newQPState initialises the shared queue-pair state, drawing the QP number
// from the machine's cluster-wide allocator.
func newQPState(ctx *Context, t Transport, port int, kind string) qpState {
	id := ctx.machine.NextQPID()
	s := qpState{
		id:        id,
		ctx:       ctx,
		transport: t,
		port:      port,
		core:      ctx.machine.PortSocket(port),
		pipeline:  sim.NewResource(fmt.Sprintf("%s%d/pipeline", kind, id)),
		sendCQ:    NewCQ(),
		recvCQ:    NewCQ(),
		policy:    DefaultRetryPolicy(),
		crashable: ctx.machine.Fabric().Params().Faults.HasCrashes(),
	}
	if reg, tl := ctx.machine.Telemetry(), ctx.machine.Timeline(); reg != nil || tl != nil {
		s.met = newStageMetrics(reg, tl, ctx.machine.Label(), ctx.machine.TimelinePID(), id, kind)
		if reg != nil {
			wait := reg.Hist(ctx.machine.Label(), kind+"/pipeline", "wait")
			service := reg.Hist(ctx.machine.Label(), kind+"/pipeline", "service")
			s.pipeline.Observe(func(arrival, start, end sim.Time) {
				wait.Observe(start - arrival)
				service.Observe(end - start)
			})
		}
	}
	return s
}

// observe forwards a stage transition to the attached observer, if any, and
// to the telemetry bridge.
func (s *qpState) observe(st Stage, at sim.Time) {
	if s.obs != nil {
		s.obs.ObserveStage(st, at)
	}
	if s.met != nil {
		s.met.stage(st, at)
	}
}

// metBegin opens the telemetry bracket for one WR (no-op without telemetry).
func (s *qpState) metBegin(op Opcode, at sim.Time) {
	if s.met != nil {
		s.met.begin(op, at)
	}
}

// metEnd closes the telemetry bracket at the WR's completion time.
func (s *qpState) metEnd(at sim.Time) {
	if s.met != nil {
		s.met.end(at)
	}
}

// SetStageObserver attaches (or, with nil, detaches) a stage listener. The
// observer sees every stage of every operation posted on this QP until
// detached; it has no effect on timing.
func (s *qpState) SetStageObserver(o StageObserver) { s.obs = o }

// SetPostObserver attaches (or, with nil, detaches) a per-post listener. The
// observer sees every successfully executed doorbell list posted on this QP
// until detached; it has no effect on timing.
func (s *qpState) SetPostObserver(o PostObserver) { s.post = o }

// ID returns the QP number.
func (s *qpState) ID() uint64 { return s.id }

// Context returns the owning context.
func (s *qpState) Context() *Context { return s.ctx }

// PortSocket returns the socket affiliated with the QP's port.
func (s *qpState) PortSocket() topo.SocketID { return s.ctx.machine.PortSocket(s.port) }

// BindCore pins the posting core to a socket (NUMA experiments).
func (s *qpState) BindCore(sock topo.SocketID) { s.core = sock }

// SendCQ returns the send completion queue.
func (s *qpState) SendCQ() *CQ { return s.sendCQ }

// RecvCQ returns the receive completion queue.
func (s *qpState) RecvCQ() *CQ { return s.recvCQ }

// PostRecv posts a receive buffer for incoming SEND/datagram traffic. On an
// SRQ-attached QP receives must be posted to the SRQ instead.
func (s *qpState) PostRecv(wr RecvWR) error {
	if s.srq != nil {
		return fmt.Errorf("%w: QP %d drains an SRQ; post receives there", ErrBadSGL, s.id)
	}
	if wr.SGE.MR == nil || wr.SGE.MR.ctx != s.ctx {
		return fmt.Errorf("%w: receive buffer must be a local MR", ErrBadSGL)
	}
	if err := wr.SGE.MR.contains(wr.SGE.Addr, wr.SGE.Length); err != nil {
		return err
	}
	s.recvQ = append(s.recvQ, wr)
	return nil
}

// CancelRecv withdraws the most recently posted receive buffer that no
// inbound SEND has consumed yet, reporting whether there was one. A datagram
// RPC uses it to reclaim the buffer of a message that never arrived.
func (s *qpState) CancelRecv() bool {
	if len(s.recvQ) == 0 {
		return false
	}
	s.recvQ = s.recvQ[:len(s.recvQ)-1]
	return true
}

// remoteSpan is the number of remote bytes the WR touches.
func remoteSpan(wr *SendWR) int {
	if wr.Opcode == OpCompSwap || wr.Opcode == OpFetchAdd {
		return 8
	}
	return wr.TotalLength()
}

// postList walks an already-validated doorbell list through the pipeline:
// one MMIO for the whole batch (Kalia et al.'s Doorbell mechanism, Section
// III-A), then each WR proceeds as an independent network operation against
// dst. On a mid-list error the completions of the WRs that fully executed —
// the completed prefix — are returned alongside the error; the failed WR
// and everything after it have no data effects and no CQEs.
//
// The returned drops slice is parallel to the completions and marks UD
// datagrams discarded because the receiver had no posted buffer; it is nil
// for connected transports, which surface that condition as ErrRNR instead.
//
// A QP in the error state — entered when the reliability layer exhausts a
// retry budget, or via ForceError — executes nothing: every WR is flushed
// with a StatusFlushed completion and the post returns ErrQPError. A WR
// whose retries exhaust mid-list completes with its error status and the
// remainder of the list flushes behind it.
//
// The returned slices are backed by src's per-QP scratch pool: they remain
// valid until the next post on the same QP (see opScratch).
func postList(src, dst *qpState, now sim.Time, wrs []*SendWR) ([]Completion, []bool, error) {
	if src.crashable && src.state != StateError && src.ctx.machine.CrashedAt(now) {
		// The posting machine is inside a crash window: its HCA is gone and
		// every QP it owns is broken. The first post during the outage
		// surfaces the crash as an error-state flush.
		src.state = StateError
	}
	if src.state == StateError {
		comps := src.scratch.comps[:0]
		drops := src.scratch.drops[:0]
		for _, wr := range wrs {
			comps = append(comps, flushWR(src, now, wr))
			if src.transport == UD {
				drops = append(drops, false)
			}
		}
		src.scratch.comps, src.scratch.drops = comps, drops
		if src.transport != UD {
			drops = nil
		}
		return comps, drops, ErrQPError
	}
	nic := src.ctx.machine.NIC()
	inlineBytes := 0
	totalBytes := 0
	allInline := true
	for _, wr := range wrs {
		if wr.Inline {
			inlineBytes += wr.TotalLength()
		} else {
			allInline = false
		}
		if src.post != nil {
			totalBytes += wr.TotalLength()
		}
	}
	// The first WR of the list owns the list-shared stages (doorbell MMIO,
	// batched WQE fetch) in the telemetry decomposition; later WRs open their
	// bracket at the per-WR loop below.
	src.metBegin(wrs[0].Opcode, now)
	t := nic.Doorbell(now, len(wrs), inlineBytes)
	src.observe(StagePosted, t)
	if src.transport != UD && !allInline {
		// Connected QPs fetch the whole doorbell list up front; UD fetches
		// its single WQE inside executeOne, after the posting-core penalty.
		t = nic.FetchWQEs(t, len(wrs))
		src.observe(StageWQEFetched, t)
	}

	comps := src.scratch.comps[:0]
	drops := src.scratch.drops[:0]
	// Keep the (possibly grown) backing arrays for the next post; the slice
	// headers above are re-derived from them after every append below.
	defer func() {
		src.scratch.comps = comps[:0]
		src.scratch.drops = drops[:0]
	}()
	if src.transport != UD {
		drops = nil
	}
	for i, wr := range wrs {
		if i > 0 {
			src.metBegin(wr.Opcode, t)
		}
		c, dropped, err := executeOne(src, dst, t, wr)
		if err != nil {
			return comps, drops, err
		}
		src.metEnd(c.Done)
		comps = append(comps, c)
		if src.transport == UD {
			drops = append(drops, dropped)
		}
		if src.state == StateError {
			// The reliability layer gave up on this WR: flush the rest of
			// the doorbell list at the error completion's time.
			for _, rest := range wrs[i+1:] {
				comps = append(comps, flushWR(src, c.Done, rest))
				if src.transport == UD {
					drops = append(drops, false)
				}
			}
			return comps, drops, ErrQPError
		}
	}
	if src.post != nil && len(comps) > 0 {
		src.post.ObservePost(now, len(wrs), totalBytes, comps[len(comps)-1].Done)
	}
	return comps, drops, nil
}

// flushWR completes one WR with StatusFlushed (no wire, no data effects) on
// a QP in the error state. Flushed completions are always signaled, as on
// real hardware, so pollers observe the drain.
func flushWR(src *qpState, at sim.Time, wr *SendWR) Completion {
	src.stats.FlushedWRs++
	src.ctx.machine.NIC().Rel().FlushedWRs++
	// A flushed WR never reached the responder — unless it is itself a
	// replayed applied failure flushed by a second connection loss, in which
	// case the transient replay flag preserves its applied-ness in the log.
	src.logFailed(wr, src.replayApplied)
	src.replayApplied = false
	cqe := src.sendCQ.push(CQE{WRID: wr.ID, Opcode: wr.Opcode, Time: at, Status: StatusFlushed})
	return Completion{WRID: cqe.WRID, Opcode: cqe.Opcode, Done: cqe.Time, Status: cqe.Status}
}

// executeOne walks one WR (already doorbelled at time t) through the
// requester NIC, the wire, and the responder, applying its data effects and
// returning the completion. The dropped flag is only ever true for UD.
func executeOne(src, dst *qpState, t sim.Time, wr *SendWR) (Completion, bool, error) {
	m := src.ctx.machine
	nic := m.NIC()
	port := nic.Port(src.port)
	tp := m.Topology().Params
	p := nic.Params()
	total := wr.TotalLength()
	ud := src.transport == UD

	// Requester-side metadata: QP context, per-SGE MR records + translations.
	// A UD WQE carries no lkey references when the payload is inline, so its
	// SGL metadata is only touched on the (non-inline) gather path below.
	meta := nic.TouchQP(src.id)
	if !ud {
		for _, s := range wr.SGL {
			meta = meta.Add(nic.TouchMR(s.MR.id))
			meta = meta.Add(nic.Translate(s.Addr, s.Length))
		}
	}

	// Posting-core NUMA penalty: MMIO and CQE polling cross QPI when the
	// core is not on the port's socket (Table III's "alt core" rows). For
	// connected transports the crossing also serializes in the chipset,
	// inflating the per-QP pipeline occupancy; UD's connectionless doorbell
	// only pays the wire-visible latency.
	var numaSvc sim.Duration
	if src.core != src.PortSocket() {
		t += 4 * tp.QPILatency
		if !ud {
			numaSvc += 2 * tp.QPILatency
		}
	}

	if ud && !wr.Inline {
		t = nic.FetchWQEs(t, 1)
		src.observe(StageWQEFetched, t)
	}

	// Payload gather (skipped for inline and for verbs with no outbound
	// payload).
	needGather := !wr.Inline && (wr.Opcode == OpWrite || wr.Opcode == OpSend)
	if needGather {
		sizes := src.scratch.ints(len(wr.SGL))
		cross := 0
		for i, s := range wr.SGL {
			sizes[i] = s.Length
			if ud {
				meta = meta.Add(nic.TouchMR(s.MR.id))
				meta = meta.Add(nic.Translate(s.Addr, s.Length))
			}
			if s.MR.region.Socket() != src.PortSocket() {
				cross++
			}
		}
		if !ud && cross > 0 {
			numaSvc += tp.QPILatency
		}
		t = nic.GatherDMA(t, sizes, cross, m.QPI(), tp.QPILatency)
		src.observe(StageGathered, t)
	}

	// Per-QP pipeline, then the port execution unit (with metadata-induced
	// service inflation). UD keeps no connection state, so its pipeline
	// stage is cheaper than the connected transports'.
	var qpSvc, exSvc sim.Duration
	switch {
	case ud:
		qpSvc, exSvc = p.QPWrite*3/4, p.ExecSend
	case wr.Opcode == OpWrite:
		qpSvc, exSvc = p.QPWrite, p.ExecWrite
	case wr.Opcode == OpRead:
		qpSvc, exSvc = p.QPRead, p.ExecRead
	case wr.Opcode == OpSend:
		qpSvc, exSvc = p.QPWrite, p.ExecSend
	default: // atomics share the read-style request pipeline
		qpSvc, exSvc = p.QPWrite, p.ExecRead
	}
	t = src.pipeline.Delay(t+meta.Latency, qpSvc+numaSvc)
	src.observe(StagePipelined, t)
	t = port.Execute(t, exSvc, meta.Service)
	src.observe(StageExecuted, t)

	// Wire to the responder.
	srcEP := m.Endpoint(src.port)
	dstEP := dst.ctx.machine.Endpoint(dst.port)
	fab := m.Fabric()
	outbound := 0
	switch wr.Opcode {
	case OpWrite, OpSend:
		outbound = total
	case OpCompSwap:
		outbound = 16
	case OpFetchAdd:
		outbound = 8
	}
	sendDone := t // local NIC is finished once the EU emits the packet

	if ud {
		// An unreliable datagram completes locally once it is on the wire;
		// no acknowledgement will ever come back.
		localDone := sendDone + CQECost
		cqe := src.sendCQ.push(CQE{Opcode: OpSend, Time: localDone, Bytes: total})
		var arrive sim.Time
		if fab.FaultsEnabled() {
			// A lossy fabric may eat the datagram in flight; UD has no
			// recovery, so the loss is silent. Each datagram is offered to
			// the fault stream exactly once — UD can drop, never duplicate.
			src.noteSegment(false)
			var v fabric.Verdict
			arrive, v = fab.Deliver(t, srcEP, dstEP, outbound)
			if v != fabric.Delivered {
				src.stats.SilentDrops++
				nic.Rel().SilentDrops++
				src.observe(StageArrived, arrive)
				return Completion{Opcode: OpSend, Done: cqe.Time, Bytes: total}, true, nil
			}
		} else {
			arrive = fab.Send(t, srcEP, dstEP, outbound)
		}
		src.observe(StageArrived, arrive)
		delivered, dropped, err := deliverDatagram(src, dst, arrive, wr, total)
		if err != nil {
			return Completion{}, false, err
		}
		src.observe(StageResponded, delivered)
		return Completion{Opcode: OpSend, Done: cqe.Time, Bytes: total}, dropped, nil
	}

	var done sim.Time
	var old uint64
	if fab.FaultsEnabled() {
		// Lossy fabric: the wire -> responder -> ACK phase runs under the
		// reliability engine (RC recovers, UC fires and forgets).
		var status CompletionStatus
		var rerr error
		done, old, status, rerr = executeReliable(src, dst, t, wr, total, outbound, sendDone)
		if rerr != nil {
			return Completion{}, false, rerr
		}
		if status != StatusOK {
			// Retry budget exhausted: the WR completes with an error CQE
			// (always signaled, even if posted unsignaled) and the QP is
			// now in the error state; postList flushes whatever follows.
			src.logFailed(wr, src.failedApplied)
			done += CQECost
			cqe := src.sendCQ.push(CQE{WRID: wr.ID, Opcode: wr.Opcode, Time: done, Bytes: total, Status: status})
			return Completion{WRID: cqe.WRID, Opcode: cqe.Opcode, Done: cqe.Time, Bytes: cqe.Bytes, Status: cqe.Status}, false, nil
		}
		src.observe(StageResponded, done)
	} else {
		t = fab.Send(t, srcEP, dstEP, outbound)
		src.observe(StageArrived, t)

		// Responder side.
		var rerr error
		done, old, rerr = respond(src, dst, t, wr, total)
		if rerr != nil {
			return Completion{}, false, rerr
		}
		src.observe(StageResponded, done)
	}
	if src.transport == UC && wr.Opcode == OpWrite {
		// Unreliable connection: no acknowledgement exists, so the send
		// completes locally as soon as the datagram is on the wire. The
		// responder-side costs above were still charged (the write lands),
		// the requester just does not wait for them.
		done = sendDone
	}

	if wr.Unsignaled {
		// Selective signaling: no CQE is generated, saving its DMA. The
		// returned completion still reports when the operation finished so
		// callers can chain timings; ordering within the QP ensures a later
		// signaled WR's CQE implies this one completed.
		return Completion{WRID: wr.ID, Opcode: wr.Opcode, Done: done, Bytes: total, OldValue: old}, false, nil
	}
	done += CQECost
	cqe := src.sendCQ.push(CQE{WRID: wr.ID, Opcode: wr.Opcode, Time: done, Bytes: total, OldValue: old})
	return Completion{WRID: cqe.WRID, Opcode: cqe.Opcode, Done: cqe.Time, Bytes: cqe.Bytes, OldValue: cqe.OldValue}, false, nil
}

// respond models the responder NIC for connected transports and applies the
// data effects, returning the time the requester-side completion condition
// is met (ACK or response received) before CQE generation.
func respond(src, dst *qpState, arrive sim.Time, wr *SendWR, total int) (sim.Time, uint64, error) {
	rm := dst.ctx.machine
	rnicDev := rm.NIC()
	rport := rnicDev.Port(dst.port)
	rtp := rm.Topology().Params
	rp := rnicDev.Params()
	fab := src.ctx.machine.Fabric()
	srcEP := src.ctx.machine.Endpoint(src.port)
	dstEP := rm.Endpoint(dst.port)

	// Responder metadata: the peer QP context plus the target MR/pages.
	meta := rnicDev.TouchQP(dst.id)
	if wr.Opcode.OneSided() {
		rmr, err := dst.ctx.LookupMR(wr.RemoteKey)
		if err != nil {
			return 0, 0, err
		}
		meta = meta.Add(rnicDev.TouchMR(rmr.id))
		meta = meta.Add(rnicDev.Translate(wr.RemoteAddr, remoteSpan(wr)))
	}

	crossesQPI := false
	if wr.Opcode.OneSided() {
		if sock, err := rm.Space().SocketOf(wr.RemoteAddr); err == nil {
			crossesQPI = sock != rm.PortSocket(dst.port)
		}
	}
	if crossesQPI {
		// Cross-socket DMA at the responder serializes on the interconnect
		// path and occupies the responder engine for longer.
		meta.Service += 3 * rtp.QPILatency
	}

	switch wr.Opcode {
	case OpWrite:
		t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
		// The ACK leaves once the NIC has accepted the payload; the DMA to
		// host memory still occupies the PCIe/QPI pipes (contention) but
		// completes asynchronously with respect to the requester.
		ack := fab.Send(t, dstEP, srcEP, 0)
		cross := 0
		if crossesQPI {
			cross = 1
			ack += rtp.QPILatency
		}
		rnicDev.ScatterDMA(t, []int{total}, cross, rm.QPI(), rtp.QPILatency)
		if err := applyWrite(dst, wr); err != nil {
			return 0, 0, err
		}
		return ack, 0, nil

	case OpRead:
		// Translation-miss handling overlaps the long host DMA read on the
		// response path, so only half the miss occupancy hits the engine.
		t := rport.Execute(arrive+meta.Latency, rp.RespRead, meta.Service/2)
		// DMA read from host DRAM: high latency, pipelined occupancy.
		rcross := 0
		if crossesQPI {
			rcross = 1
		}
		t = rnicDev.GatherDMA(t, []int{total}, rcross, rm.QPI(), rtp.QPILatency) + rp.PCIeReadLatency
		t = fab.Send(t, dstEP, srcEP, total)
		// Scatter into local buffers at the requester. READ has no gather
		// phase, so the requester QP's size-vector scratch is free here.
		sizes := src.scratch.ints(len(wr.SGL))
		cross := 0
		for i, s := range wr.SGL {
			sizes[i] = s.Length
			if s.MR.region.Socket() != src.PortSocket() {
				cross++
			}
		}
		nic := src.ctx.machine.NIC()
		t = nic.ScatterDMA(t, sizes, cross, src.ctx.machine.QPI(), src.ctx.machine.Topology().Params.QPILatency)
		if err := applyRead(dst, wr); err != nil {
			return 0, 0, err
		}
		return t, 0, nil

	case OpCompSwap, OpFetchAdd:
		t := rport.ExecuteAtomic(arrive + meta.Latency)
		// Locked PCIe read-modify-write against host memory.
		rcross := 0
		if crossesQPI {
			rcross = 1
		}
		t = rnicDev.GatherDMA(t, []int{8}, rcross, rm.QPI(), rtp.QPILatency) + rp.PCIeReadLatency
		rnicDev.ScatterDMA(t, []int{8}, rcross, rm.QPI(), rtp.QPILatency)
		old, err := applyAtomic(dst, wr)
		if err != nil {
			return 0, 0, err
		}
		t = fab.Send(t, dstEP, srcEP, 8)
		return t, old, nil

	case OpSend:
		if dst.recvEmpty() {
			return 0, 0, ErrRNR
		}
		recv := dst.frontRecv()
		if recv.SGE.Length < total {
			return 0, 0, fmt.Errorf("%w: receive buffer %d < payload %d", ErrBadSGL, recv.SGE.Length, total)
		}
		dst.popRecv()
		t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
		rcross := 0
		if recv.SGE.MR.region.Socket() != rm.PortSocket(dst.port) {
			rcross = 1
		}
		dmaEnd := rnicDev.ScatterDMA(t, []int{total}, rcross, rm.QPI(), rtp.QPILatency)
		if err := applySend(dst, wr, recv); err != nil {
			return 0, 0, err
		}
		dst.recvCQ.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: total})
		ack := fab.Send(t, dstEP, srcEP, 0)
		return ack, 0, nil
	}
	return 0, 0, fmt.Errorf("verbs: unknown opcode %v", wr.Opcode)
}

// deliverDatagram models the receiver of a UD send: there is no
// acknowledgement and no RNR back-pressure — with no posted buffer the
// datagram is silently dropped (unreliable!). It returns the delivery time
// (receive-side DMA end) and the drop flag.
func deliverDatagram(src, dst *qpState, arrive sim.Time, wr *SendWR, total int) (sim.Time, bool, error) {
	rm := dst.ctx.machine
	rnicDev := rm.NIC()
	rmeta := rnicDev.TouchQP(dst.id)
	rt := rnicDev.Port(dst.port).Execute(arrive+rmeta.Latency, rnicDev.Params().RespWrite, rmeta.Service)
	if dst.recvEmpty() {
		return rt, true, nil
	}
	recv := dst.frontRecv()
	if recv.SGE.Length < total {
		return 0, false, fmt.Errorf("%w: receive buffer %d < datagram %d", ErrBadSGL, recv.SGE.Length, total)
	}
	dst.popRecv()
	rcross := 0
	if recv.SGE.MR.region.Socket() != rm.PortSocket(dst.port) {
		rcross = 1
	}
	dmaEnd := rnicDev.ScatterDMA(rt, []int{total}, rcross, rm.QPI(), rm.Topology().Params.QPILatency)
	if err := applySend(dst, wr, recv); err != nil {
		return 0, false, err
	}
	dst.recvCQ.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: total})
	return dmaEnd, false, nil
}

// applyWrite gathers the SGL bytes and stores them contiguously at the
// remote address. The staging buffer comes from the responder QP's scratch
// pool; Space.WriteAt copies out of it before returning.
func applyWrite(dst *qpState, wr *SendWR) error {
	buf := dst.scratch.bytes(wr.TotalLength())
	for _, s := range wr.SGL {
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	err := dst.ctx.machine.Space().WriteAt(wr.RemoteAddr, buf)
	dst.scratch.payload = buf[:0]
	return err
}

// applyRead loads the remote bytes and scatters them into the SGL, staging
// through the responder QP's scratch pool.
func applyRead(dst *qpState, wr *SendWR) error {
	buf := dst.scratch.bytesN(wr.TotalLength())
	if err := dst.ctx.machine.Space().ReadAt(wr.RemoteAddr, buf); err != nil {
		return err
	}
	off := 0
	for _, s := range wr.SGL {
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		copy(b, buf[off:off+s.Length])
		off += s.Length
	}
	return nil
}

// applyAtomic performs the 8-byte remote read-modify-write and stores the
// old value into the local SGE. RDMA atomics are big-endian on the wire but
// operate on host-order integers; we use little-endian throughout for
// simplicity.
func applyAtomic(dst *qpState, wr *SendWR) (uint64, error) {
	space := dst.ctx.machine.Space()
	var b [8]byte
	if err := space.ReadAt(wr.RemoteAddr, b[:]); err != nil {
		return 0, err
	}
	old := binary.LittleEndian.Uint64(b[:])
	switch wr.Opcode {
	case OpCompSwap:
		if old == wr.CompareAdd {
			binary.LittleEndian.PutUint64(b[:], wr.Swap)
			if err := space.WriteAt(wr.RemoteAddr, b[:]); err != nil {
				return 0, err
			}
		}
	case OpFetchAdd:
		binary.LittleEndian.PutUint64(b[:], old+wr.CompareAdd)
		if err := space.WriteAt(wr.RemoteAddr, b[:]); err != nil {
			return 0, err
		}
	}
	// Store the old value into the local completion buffer.
	s := wr.SGL[0]
	local, err := s.MR.region.Slice(s.Addr, 8)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(local, old)
	return old, nil
}

// applySend copies the gathered payload into the posted receive buffer,
// staging through the receiving QP's scratch pool.
func applySend(dst *qpState, wr *SendWR, recv RecvWR) error {
	buf := dst.scratch.bytes(wr.TotalLength())
	for _, s := range wr.SGL {
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	rbuf, err := recv.SGE.MR.region.Slice(recv.SGE.Addr, len(buf))
	if err != nil {
		return err
	}
	copy(rbuf, buf)
	return nil
}
