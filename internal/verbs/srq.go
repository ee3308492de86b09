// Shared receive queues: the first leg of datacenter-scale connection
// serving (RDMAvisor's observation that per-QP receive provisioning does not
// scale). An SRQ is a single FIFO of receive work requests that any number
// of queue pairs on the same machine drain from: instead of every connection
// pre-posting its own buffers, the serving process posts one shared pool and
// each arriving SEND — whichever QP it lands on — consumes the head entry.
//
// Semantics preserved from the per-QP receive queue, bit for bit:
//
//   - hand-out is deterministic FIFO in responder arrival order (the event
//     kernel is single threaded per shard, and every QP attached to one SRQ
//     shares its machine and therefore its shard — see AttachSRQ);
//   - an empty SRQ is "receiver not ready", never a drop, on connected
//     transports: ErrRNR on a lossless fabric, an RNR NAK + RNR-timer retry
//     under the reliability layer (reliability.go), exactly as when a QP's
//     own receive queue underflows. Only UD keeps its silent datagram drop;
//   - the receive completion still lands on the *consuming* QP's receive CQ,
//     as on real hardware, so pollers learn which connection the message
//     arrived on.
//
// A QP with no SRQ attached takes the exact same code path it always did:
// the recv accessors below compile to the old slice operations, so the 28
// pre-SRQ goldens are byte-identical with this file compiled in.
package verbs

import "fmt"

// SRQ is a shared receive queue. Create one with NewSRQ, fill it with
// PostRecv, and attach it to any number of QPs (or UDQPs) on the same
// machine with AttachSRQ.
type SRQ struct {
	ctx    *Context
	q      []RecvWR
	posted uint64
	handed uint64
}

// NewSRQ creates an empty shared receive queue on the given context.
func NewSRQ(ctx *Context) *SRQ {
	if ctx == nil {
		panic("verbs: nil context")
	}
	return &SRQ{ctx: ctx}
}

// PostRecv appends one receive buffer to the shared queue. Validation
// matches the per-QP PostRecv: the buffer must be a local MR of the SRQ's
// context and lie inside it.
func (s *SRQ) PostRecv(wr RecvWR) error {
	if wr.SGE.MR == nil || wr.SGE.MR.ctx != s.ctx {
		return fmt.Errorf("%w: receive buffer must be a local MR", ErrBadSGL)
	}
	if err := wr.SGE.MR.contains(wr.SGE.Addr, wr.SGE.Length); err != nil {
		return err
	}
	s.q = append(s.q, wr)
	s.posted++
	return nil
}

// Len returns the number of receive buffers currently queued.
func (s *SRQ) Len() int { return len(s.q) }

// Posted returns the total number of receive WRs ever posted.
func (s *SRQ) Posted() uint64 { return s.posted }

// Handed returns the total number of receive WRs consumed by attached QPs.
func (s *SRQ) Handed() uint64 { return s.handed }

// AttachSRQ redirects this queue pair's inbound SENDs to the shared receive
// queue: from now on arriving messages consume srq entries instead of the
// QP's own receive queue (which must be empty at attach time — mixing the
// two would make hand-out order ambiguous).
//
// The SRQ must live on the QP's machine. This is what keeps sharding
// deterministic for free: every client driving a QP attached to this SRQ has
// the SRQ's machine in its footprint (it is the QP's local or remote end),
// so the footprint union-find of cluster.Engine places all of them in one
// shard and the FIFO sees one deterministic arrival order at any
// -engine-workers width.
func (s *qpState) AttachSRQ(srq *SRQ) error {
	if srq == nil {
		return fmt.Errorf("verbs: nil SRQ")
	}
	if srq.ctx.machine != s.ctx.machine {
		return fmt.Errorf("verbs: SRQ on %s cannot serve a QP on %s",
			srq.ctx.machine.Label(), s.ctx.machine.Label())
	}
	if len(s.recvQ) != 0 {
		return fmt.Errorf("verbs: QP %d has %d posted receives; attach the SRQ first", s.id, len(s.recvQ))
	}
	s.srq = srq
	return nil
}

// SRQ returns the attached shared receive queue, or nil.
func (s *qpState) SRQ() *SRQ { return s.srq }

// The receive-source indirection: every consumer of inbound SENDs (the
// lossless responder, the reliability layer's responder, the UD datagram
// receiver) goes through these three accessors, so SRQ-attached and plain
// QPs share one code path. Without an SRQ they are exactly the historical
// slice operations on recvQ.

// recvEmpty reports whether the QP has no receive buffer available — the
// receiver-not-ready condition.
func (s *qpState) recvEmpty() bool {
	if s.srq != nil {
		return len(s.srq.q) == 0
	}
	return len(s.recvQ) == 0
}

// frontRecv returns the receive buffer the next inbound SEND would consume
// without consuming it (the size check happens between peek and pop, and a
// failed check must not eat the buffer).
func (s *qpState) frontRecv() RecvWR {
	if s.srq != nil {
		return s.srq.q[0]
	}
	return s.recvQ[0]
}

// popRecv consumes the head receive buffer.
func (s *qpState) popRecv() {
	if s.srq != nil {
		s.srq.q = s.srq.q[1:]
		s.srq.handed++
		return
	}
	s.recvQ = s.recvQ[1:]
}
