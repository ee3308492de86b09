// The RC reliability layer: what makes the R in "Reliable Connection" real
// when the fabric is lossy. On a lossless fabric (no FaultPlan attached)
// none of this code runs and every verb takes the untouched single-message
// path of pipeline.go, bit for bit. With a FaultPlan attached, connected
// transports push their wire phase through this engine instead:
//
//   - messages are segmented at PathMTU and stamped with per-QP packet
//     sequence numbers (PSNs);
//   - the responder detects PSN gaps and answers with a go-back-N NAK for
//     the first missing PSN; the requester retransmits from there;
//   - lost tails (or lost ACKs/NAKs) are recovered by an ACK timeout with
//     exponential backoff, driven entirely by the sim clock;
//   - a SEND arriving with no posted receive WR draws an RNR NAK and is
//     retried after the RNR timer;
//   - when the retry budget is exhausted the QP transitions to the error
//     state and the WR completes with an error status — every later WR on
//     the QP is flushed (StatusFlushed) without touching the wire;
//   - duplicate segments from a retransmission round are detected by PSN
//     and never re-apply data effects (acks are regenerated instead), so a
//     successful completion always implies exactly-once memory effects.
//
// UC and UD have no reliability machinery, as the spec requires: their
// segments draw the same fault stream but losses are silent — a torn UC
// WRITE applies only the contiguous prefix that arrived, a UC/UD SEND with
// any lost segment vanishes without consuming a receive WR.
package verbs

import (
	"fmt"

	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
)

// PathMTU is the wire segment size of connected transports: messages larger
// than this are split into multiple packets, each drawing its own fate from
// the fault plan. It matches UDMTU, the datagram limit.
const PathMTU = 4096

// CompletionStatus reports how a work request finished. The zero value is
// success, so lossless-path completions are unchanged by the reliability
// layer's existence.
type CompletionStatus int

// Completion statuses, mirroring the ibverbs wc_status values the paper's
// testbed would surface.
const (
	StatusOK               CompletionStatus = iota
	StatusRetryExceeded                     // transport retry budget exhausted (lost data or acks)
	StatusRNRRetryExceeded                  // receiver-not-ready retry budget exhausted
	StatusFlushed                           // WR flushed: the QP was already in the error state
)

func (s CompletionStatus) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRetryExceeded:
		return "RETRY_EXC"
	case StatusRNRRetryExceeded:
		return "RNR_RETRY_EXC"
	default:
		return "FLUSH"
	}
}

// State is the queue-pair state machine surface. The model only
// distinguishes operational from broken: a QP in StateError flushes every
// posted WR until torn down.
type State int

// QP states.
const (
	StateReady State = iota
	StateError
)

func (s State) String() string {
	if s == StateReady {
		return "READY"
	}
	return "ERROR"
}

// RetryPolicy is the per-QP reliability configuration, the knobs ibv_modify_qp
// sets on real hardware.
type RetryPolicy struct {
	RetryCount    int          // recovery rounds (NAK or timeout) before the QP errors out
	RNRRetryCount int          // receiver-not-ready retries before the QP errors out
	AckTimeout    sim.Duration // base ACK timeout; doubles per consecutive timeout
	RNRTimer      sim.Duration // wait after an RNR NAK before retrying
}

// DefaultRetryPolicy mirrors common ConnectX defaults: retry_cnt=7,
// rnr_retry=7, a 16us base timeout and a 64us RNR timer.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		RetryCount:    7,
		RNRRetryCount: 7,
		AckTimeout:    16 * sim.Microsecond,
		RNRTimer:      64 * sim.Microsecond,
	}
}

// maxBackoffShift caps the exponential ACK-timeout backoff at 2^6 = 64x.
const maxBackoffShift = 6

// QPStats is the per-QP reliability tally. All fields are zero on a
// lossless fabric.
type QPStats struct {
	SendPSN           uint64 // next packet sequence number to assign
	ExpectedPSN       uint64 // next PSN the responder side expects
	Segments          uint64 // segments placed on the wire, including retransmits
	Retransmits       uint64 // segments re-sent by go-back-N recovery
	AckTimeouts       uint64 // recovery rounds entered via timeout
	NaksReceived      uint64 // go-back-N sequence NAKs received
	RNRNaks           uint64 // receiver-not-ready NAKs received
	RetriesExhausted  uint64 // WRs that errored out after the retry budget
	FlushedWRs        uint64 // WRs flushed because the QP was in error state
	SilentDrops       uint64 // UC/UD messages lost on the wire with no recovery
	Reconnects        uint64 // successful Reconnect walks on this QP
	ReconnectFailures uint64 // Reconnect walks that found a host still down
	Replayed          uint64 // failed WRs reposted through Replay
}

// Stats returns the QP's reliability tally.
func (s *qpState) Stats() QPStats { return s.stats }

// State returns the QP's state-machine state.
func (s *qpState) State() State { return s.state }

// RetryPolicy returns the QP's reliability configuration.
func (s *qpState) RetryPolicy() RetryPolicy { return s.policy }

// SetRetryPolicy replaces the QP's reliability configuration (the model's
// ibv_modify_qp). Negative budgets and non-positive timers panic: they make
// the recovery loop meaningless.
func (s *qpState) SetRetryPolicy(p RetryPolicy) {
	if p.RetryCount < 0 || p.RNRRetryCount < 0 {
		panic("verbs: negative retry budget")
	}
	if p.AckTimeout <= 0 || p.RNRTimer <= 0 {
		panic("verbs: retry timers must be positive")
	}
	s.policy = p
}

// ForceError moves the QP to the error state (the model's ibv_modify_qp to
// IBV_QPS_ERR, used to drain a connection). Subsequent posts flush.
func (s *qpState) ForceError() { s.state = StateError }

// segmentSizes splits outbound payload bytes into PathMTU segments. Every
// message is at least one packet (READ requests and 0-byte ACK-only wires
// still put a frame on the wire). The result lives in the given QP scratch
// pool — the request buffer normally, the response buffer when resp is set,
// because the requester holds its request segmentation across recovery
// rounds while response legs come and go (and on a loopback pair the two
// directions share one pool).
func segmentSizes(scratch *opScratch, outbound int, resp bool) []int {
	n := 1
	if outbound > PathMTU {
		n = (outbound + PathMTU - 1) / PathMTU
	}
	var sizes []int
	if resp {
		sizes = scratch.respSegments(n)
	} else {
		sizes = scratch.segments(n)
	}
	for i := 0; i < n-1; i++ {
		sizes[i] = PathMTU
	}
	sizes[n-1] = outbound - (n-1)*PathMTU
	return sizes
}

// noteSegment tallies one wire segment at the requester.
func (s *qpState) noteSegment(retransmit bool) {
	s.stats.Segments++
	rel := s.ctx.machine.NIC().Rel()
	rel.Segments++
	if retransmit {
		s.stats.Retransmits++
		rel.Retransmits++
	}
}

// executeReliable runs the wire -> responder -> ACK phase of one connected
// (RC or UC) work request on a faulty fabric, starting when the requester's
// execution unit emits the first segment. It returns the requester-side
// completion-condition time (pre-CQE), the atomic old value, and the
// completion status. RC recovers losses as described in the package comment;
// UC sends its segments exactly once and completes locally.
//
// A returned error is a hard modelling failure (e.g. an undersized receive
// buffer), identical in meaning to the lossless path's errors.
func executeReliable(src, dst *qpState, emit sim.Time, wr *SendWR, total, outbound int, sendDone sim.Time) (sim.Time, uint64, CompletionStatus, error) {
	if src.transport == UC {
		return executeUCLossy(src, dst, emit, wr, total, outbound, sendDone)
	}
	m := src.ctx.machine
	fab := m.Fabric()
	srcEP := m.Endpoint(src.port)
	dstEP := dst.ctx.machine.Endpoint(dst.port)
	nic := m.NIC()
	pol := src.policy

	sizes := segmentSizes(&src.scratch, outbound, false)
	nseg := len(sizes)
	// Assign this message's PSN window.
	src.stats.SendPSN += uint64(nseg)

	attempts := 0       // recovery rounds consumed (NAK + timeout)
	rnrAttempts := 0    // RNR recovery rounds consumed
	consecTimeouts := 0 // consecutive timeout recoveries, drives backoff
	firstUnacked := 0   // go-back-N resend point
	round := 0          // transmission rounds completed
	// applied: the responder has executed the request. A replayed WR whose
	// effects already landed before its connection died (see recovery.go)
	// seeds this true, so the whole replay runs as a duplicate round — the
	// responder regenerates its acknowledgement and never re-touches memory.
	applied := src.replayApplied
	src.replayApplied = false
	var respDone sim.Time // responder completion-condition basis (ACK emission)
	var old uint64

	t := emit
	fail := func(at sim.Time, status CompletionStatus) (sim.Time, uint64, CompletionStatus, error) {
		src.state = StateError
		src.stats.RetriesExhausted++
		nic.Rel().RetriesExhausted++
		// Remember whether the effects landed, for exactly-once replay.
		src.failedApplied = applied
		return at, old, status, nil
	}
	timeout := func(last sim.Time) sim.Time {
		shift := consecTimeouts
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		consecTimeouts++
		src.stats.AckTimeouts++
		nic.Rel().AckTimeouts++
		return last + pol.AckTimeout<<shift
	}

	for {
		// Transmission round: segments firstUnacked..nseg-1, back to back.
		// The tx pipe serializes them; each draws its own fate.
		lost := -1
		lastOK := t
		nakTime := sim.Time(0)
		nakDelivered := false
		for i := firstUnacked; i < nseg; i++ {
			src.noteSegment(round > 0)
			arr, v := fab.Deliver(t, srcEP, dstEP, sizes[i])
			if v != fabric.Delivered {
				if lost < 0 {
					lost = i
				}
				continue
			}
			if lost < 0 {
				lastOK = arr
				continue
			}
			// Out-of-order arrival behind a gap: the responder NAKs the
			// first missing PSN, once per round. The NAK itself can drop.
			if !nakDelivered {
				nArr, nv := fab.Deliver(arr, dstEP, srcEP, 0)
				if nv == fabric.Delivered {
					nakDelivered, nakTime = true, nArr
				}
			}
		}
		round++

		if lost < 0 {
			// Every outstanding segment arrived in order.
			if !applied {
				dst.stats.ExpectedPSN = src.stats.SendPSN
				d, o, rnr, err := respondReliable(src, dst, lastOK, wr, total)
				if err != nil {
					return 0, 0, StatusOK, err
				}
				if rnr {
					// Receiver not ready: RNR NAK back to the requester.
					rnrAttempts++
					if rnrAttempts > pol.RNRRetryCount {
						return fail(d, StatusRNRRetryExceeded)
					}
					nArr, nv := fab.Deliver(d, dstEP, srcEP, 0)
					if nv == fabric.Delivered {
						src.stats.RNRNaks++
						nic.Rel().RNRNaks++
						t = nArr + pol.RNRTimer
					} else {
						// Lost RNR NAK: recover by timeout like a lost ACK.
						t = timeout(lastOK)
					}
					firstUnacked = 0 // the whole message is retried
					continue
				}
				applied = true
				respDone, old = d, o
			} else {
				// Pure duplicate round: the responder recognises the PSNs,
				// discards the payload and regenerates its response.
				respDone = lastOK
			}

			// Response / ACK leg. READs and atomics carry payload back;
			// WRITE and SEND draw a bare ACK.
			done, delivered := deliverResponse(src, dst, respDone, wr, total)
			if delivered {
				if wr.Opcode == OpRead {
					if err := applyRead(dst, wr); err != nil {
						return 0, 0, StatusOK, err
					}
				}
				return done, old, StatusOK, nil
			}
			// Lost ACK/response: fall through to timeout recovery; the
			// requester resends from the first unacked PSN and the
			// responder will see duplicates.
			lastOK = done
		}

		// Recovery round: compute when and where the retransmission
		// restarts, then charge it against the retry budget. The final
		// failing round still pays its timeout, so the error completion
		// lands when the requester actually gave up. Forward progress —
		// the resend point advancing past PSNs the responder has now
		// accepted — restores the retry budget, as real NICs do: the
		// counter bounds retries *without* progress, not total recoveries
		// on a large message.
		if lost > firstUnacked {
			attempts = 0
		}
		if nakDelivered {
			consecTimeouts = 0
			src.stats.NaksReceived++
			nic.Rel().NaksReceived++
			t = nakTime
			firstUnacked = lost
		} else {
			t = timeout(lastOK)
			if lost >= 0 {
				firstUnacked = lost
			}
		}
		attempts++
		if attempts > pol.RetryCount {
			return fail(t, StatusRetryExceeded)
		}
	}
}

// deliverResponse moves the responder's answer back to the requester: the
// read payload (segmented), the 8-byte atomic response, or a bare ACK. It
// returns the requester-side completion-condition time and whether every
// segment survived the fabric. For READs the requester-side scatter DMA is
// charged on success, mirroring the lossless respond().
func deliverResponse(src, dst *qpState, from sim.Time, wr *SendWR, total int) (sim.Time, bool) {
	fab := src.ctx.machine.Fabric()
	srcEP := src.ctx.machine.Endpoint(src.port)
	dstEP := dst.ctx.machine.Endpoint(dst.port)

	respBytes := 0
	switch wr.Opcode {
	case OpRead:
		respBytes = total
	case OpCompSwap, OpFetchAdd:
		respBytes = 8
	}
	t := from
	for _, size := range segmentSizes(&src.scratch, respBytes, true) {
		arr, v := fab.Deliver(t, dstEP, srcEP, size)
		if v != fabric.Delivered {
			return arr, false
		}
		t = arr
	}
	if wr.Opcode == OpRead {
		// Scatter into the local SGL buffers, as on the lossless path. READ
		// has no gather phase, so the requester's size-vector scratch is free.
		sizes := src.scratch.ints(len(wr.SGL))
		cross := 0
		for i, s := range wr.SGL {
			sizes[i] = s.Length
			if s.MR.region.Socket() != src.PortSocket() {
				cross++
			}
		}
		m := src.ctx.machine
		t = m.NIC().ScatterDMA(t, sizes, cross, m.QPI(), m.Topology().Params.QPILatency)
	}
	return t, true
}

// respondReliable is the responder-side execution of one fully received RC
// request: the costs and data effects of the lossless respond(), minus the
// ACK/response wire leg (the caller owns that, because it can be lost). The
// rnr result reports a SEND with no posted receive WR; data effects happen
// exactly once, on this call.
func respondReliable(src, dst *qpState, arrive sim.Time, wr *SendWR, total int) (ackBase sim.Time, old uint64, rnr bool, err error) {
	rm := dst.ctx.machine
	rnicDev := rm.NIC()
	rport := rnicDev.Port(dst.port)
	rtp := rm.Topology().Params
	rp := rnicDev.Params()

	meta := rnicDev.TouchQP(dst.id)
	if wr.Opcode.OneSided() {
		rmr, err := dst.ctx.LookupMR(wr.RemoteKey)
		if err != nil {
			return 0, 0, false, err
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
		meta.Service += 3 * rtp.QPILatency
	}

	switch wr.Opcode {
	case OpWrite:
		t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
		cross := 0
		ackLag := sim.Duration(0)
		if crossesQPI {
			cross = 1
			ackLag = rtp.QPILatency
		}
		rnicDev.ScatterDMA(t, []int{total}, cross, rm.QPI(), rtp.QPILatency)
		if err := applyWrite(dst, wr); err != nil {
			return 0, 0, false, err
		}
		return t + ackLag, 0, false, nil

	case OpRead:
		t := rport.Execute(arrive+meta.Latency, rp.RespRead, meta.Service/2)
		rcross := 0
		if crossesQPI {
			rcross = 1
		}
		t = rnicDev.GatherDMA(t, []int{total}, rcross, rm.QPI(), rtp.QPILatency) + rp.PCIeReadLatency
		return t, 0, false, nil

	case OpCompSwap, OpFetchAdd:
		t := rport.ExecuteAtomic(arrive + meta.Latency)
		rcross := 0
		if crossesQPI {
			rcross = 1
		}
		t = rnicDev.GatherDMA(t, []int{8}, rcross, rm.QPI(), rtp.QPILatency) + rp.PCIeReadLatency
		rnicDev.ScatterDMA(t, []int{8}, rcross, rm.QPI(), rtp.QPILatency)
		old, err := applyAtomic(dst, wr)
		if err != nil {
			return 0, 0, false, err
		}
		return t, old, false, nil

	case OpSend:
		if dst.recvEmpty() {
			// RNR NAK leaves after the responder engine has looked at the
			// request. An exhausted SRQ is the same receiver-not-ready
			// condition as an empty per-QP receive queue: RC backs off and
			// retries, it never drops.
			t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
			return t, 0, true, nil
		}
		recv := dst.frontRecv()
		if recv.SGE.Length < total {
			return 0, 0, false, fmt.Errorf("%w: receive buffer %d < payload %d", ErrBadSGL, recv.SGE.Length, total)
		}
		dst.popRecv()
		t := rport.Execute(arrive+meta.Latency, rp.RespWrite, meta.Service)
		rcross := 0
		if recv.SGE.MR.region.Socket() != rm.PortSocket(dst.port) {
			rcross = 1
		}
		dmaEnd := rnicDev.ScatterDMA(t, []int{total}, rcross, rm.QPI(), rtp.QPILatency)
		if err := applySend(dst, wr, recv); err != nil {
			return 0, 0, false, err
		}
		dst.recvCQ.push(CQE{WRID: recv.ID, Opcode: OpSend, Time: dmaEnd + CQECost, Bytes: total})
		return t, 0, false, nil
	}
	return 0, 0, false, fmt.Errorf("verbs: unknown opcode %v", wr.Opcode)
}

// executeUCLossy is the unreliable-connection wire phase on a faulty fabric:
// segments are sent exactly once, losses are silent. A torn WRITE applies
// only the contiguous prefix of segments that arrived before the first loss
// (the responder loses message sync at the gap); a SEND with any lost
// segment vanishes without consuming a receive WR. The requester completes
// locally either way — nothing ever comes back on UC.
func executeUCLossy(src, dst *qpState, emit sim.Time, wr *SendWR, total, outbound int, sendDone sim.Time) (sim.Time, uint64, CompletionStatus, error) {
	m := src.ctx.machine
	fab := m.Fabric()
	srcEP := m.Endpoint(src.port)
	dstEP := dst.ctx.machine.Endpoint(dst.port)

	sizes := segmentSizes(&src.scratch, outbound, false)
	src.stats.SendPSN += uint64(len(sizes))
	arrived := 0
	prefixBytes := 0
	intact := true
	var lastArr sim.Time
	for _, size := range sizes {
		src.noteSegment(false)
		arr, v := fab.Deliver(emit, srcEP, dstEP, size)
		if v != fabric.Delivered {
			intact = false
			break
		}
		arrived++
		prefixBytes += size
		lastArr = arr
	}
	if !intact {
		src.stats.SilentDrops++
		m.NIC().Rel().SilentDrops++
	}

	switch wr.Opcode {
	case OpWrite:
		if arrived > 0 {
			dst.stats.ExpectedPSN += uint64(arrived)
			if err := ucLandWrite(src, dst, lastArr, wr, prefixBytes); err != nil {
				return 0, 0, StatusOK, err
			}
		}
	case OpSend:
		if intact {
			dst.stats.ExpectedPSN += uint64(arrived)
			if _, _, rnr, err := respondReliable(src, dst, lastArr, wr, total); err != nil {
				return 0, 0, StatusOK, err
			} else if rnr {
				// No posted receive: the datagram is silently discarded.
				src.stats.SilentDrops++
				m.NIC().Rel().SilentDrops++
			}
		}
	}
	return sendDone, 0, StatusOK, nil
}

// ucLandWrite charges the responder-side landing of the first n bytes of a
// UC WRITE and applies them — the whole message when intact, a torn prefix
// otherwise.
func ucLandWrite(src, dst *qpState, arrive sim.Time, wr *SendWR, n int) error {
	rm := dst.ctx.machine
	rnicDev := rm.NIC()
	rtp := rm.Topology().Params
	meta := rnicDev.TouchQP(dst.id)
	rmr, err := dst.ctx.LookupMR(wr.RemoteKey)
	if err != nil {
		return err
	}
	meta = meta.Add(rnicDev.TouchMR(rmr.id))
	meta = meta.Add(rnicDev.Translate(wr.RemoteAddr, n))
	cross := 0
	if sock, err := rm.Space().SocketOf(wr.RemoteAddr); err == nil && sock != rm.PortSocket(dst.port) {
		cross = 1
		meta.Service += 3 * rtp.QPILatency
	}
	t := rnicDev.Port(dst.port).Execute(arrive+meta.Latency, rnicDev.Params().RespWrite, meta.Service)
	rnicDev.ScatterDMA(t, []int{n}, cross, rm.QPI(), rtp.QPILatency)
	return applyWritePrefix(dst, wr, n)
}

// applyWritePrefix stores the first n gathered bytes at the remote address:
// the memory effect of a torn UC WRITE.
func applyWritePrefix(dst *qpState, wr *SendWR, n int) error {
	if n <= 0 {
		return nil
	}
	if n > wr.TotalLength() {
		n = wr.TotalLength()
	}
	buf := dst.scratch.bytes(n)
	for _, s := range wr.SGL {
		if len(buf) >= n {
			break
		}
		b, err := s.MR.region.Slice(s.Addr, s.Length)
		if err != nil {
			return err
		}
		take := s.Length
		if len(buf)+take > n {
			take = n - len(buf)
		}
		buf = append(buf, b[:take]...)
	}
	return dst.ctx.machine.Space().WriteAt(wr.RemoteAddr, buf)
}
