package core

import (
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// Caller abstracts one request/response exchange so the RPC-based lock and
// sequencer run over either the RC (connected send/recv) or the UD
// (datagram, Herd/FaSST-style) transport.
type Caller interface {
	Call(now sim.Time, reqSize, respSize int, handler func(at sim.Time) uint64) (uint64, sim.Time, error)
}

// UDRPCServer is the datagram-RPC flavor of RPCServer: one UD queue pair
// serves every client, so the responder's QP-context footprint stays
// constant no matter how many clients connect — the scalability property
// Section II-B2 attributes to UD designs.
type UDRPCServer struct {
	cpu     *sim.Resource
	service sim.Duration
	ctx     *verbs.Context
	qp      *verbs.UDQP
	mr      *verbs.MR
}

// NewUDRPCServer creates a UD RPC server on the given port.
func NewUDRPCServer(ctx *verbs.Context, port int, mr *verbs.MR, service sim.Duration) (*UDRPCServer, error) {
	if ctx == nil || mr == nil {
		return nil, fmt.Errorf("core: ud rpc server needs a context and MR")
	}
	if service <= 0 {
		return nil, fmt.Errorf("core: ud rpc service time must be positive")
	}
	qp, err := verbs.NewUDQP(ctx, port)
	if err != nil {
		return nil, err
	}
	return &UDRPCServer{
		cpu:     sim.NewResource("udrpc-server/cpu"),
		service: service,
		ctx:     ctx,
		qp:      qp,
		mr:      mr,
	}, nil
}

// UDRPCClient is one client's endpoint toward a UDRPCServer.
type UDRPCClient struct {
	server *UDRPCServer
	qp     *verbs.UDQP
	mr     *verbs.MR
}

// NewUDRPCClient creates a client endpoint on the given context and port.
func (s *UDRPCServer) NewUDRPCClient(client *verbs.Context, port int, clientMR *verbs.MR) (*UDRPCClient, error) {
	qp, err := verbs.NewUDQP(client, port)
	if err != nil {
		return nil, err
	}
	return &UDRPCClient{server: s, qp: qp, mr: clientMR}, nil
}

// Call performs one datagram request/response exchange. Both directions are
// single UD sends; the handler runs under the server CPU at its service
// time. UD is unreliable: a leg the fabric drops is sent again after the
// default RC ACK timeout, doubling per consecutive loss, up to RetryCount
// times before Call gives up with an error. A lost response is re-sent from
// the result the server already computed, so the handler runs exactly once
// per Call, and no receive buffer stays posted once Call returns.
func (c *UDRPCClient) Call(now sim.Time, reqSize, respSize int, handler func(at sim.Time) uint64) (uint64, sim.Time, error) {
	s := c.server
	if err := s.qp.PostRecv(verbs.RecvWR{
		SGE: verbs.SGE{Addr: s.mr.Addr(), Length: reqSize, MR: s.mr},
	}); err != nil {
		return 0, 0, err
	}
	if err := c.qp.PostRecv(verbs.RecvWR{
		SGE: verbs.SGE{Addr: c.mr.Addr(), Length: respSize, MR: c.mr},
	}); err != nil {
		s.qp.CancelRecv()
		return 0, 0, err
	}
	// Request datagram (inline when small: the fast path Herd uses).
	if err := sendLeg(c.qp, s.qp, now, verbs.SGE{Addr: c.mr.Addr(), Length: reqSize, MR: c.mr}); err != nil {
		s.qp.CancelRecv()
		c.qp.CancelRecv()
		return 0, 0, fmt.Errorf("core: ud rpc request: %w", err)
	}
	cqe, ok := s.qp.RecvCQ().PollOne(sim.MaxTime)
	if !ok {
		c.qp.CancelRecv()
		return 0, 0, fmt.Errorf("core: ud rpc request did not arrive")
	}
	t := s.cpu.Delay(cqe.Time, s.service)
	var result uint64
	if handler != nil {
		result = handler(t)
	}
	// Response datagram.
	if err := sendLeg(s.qp, c.qp, t, verbs.SGE{Addr: s.mr.Addr(), Length: respSize, MR: s.mr}); err != nil {
		c.qp.CancelRecv()
		return 0, 0, fmt.Errorf("core: ud rpc response: %w", err)
	}
	rcqe, ok := c.qp.RecvCQ().PollOne(sim.MaxTime)
	if !ok {
		return 0, 0, fmt.Errorf("core: ud rpc response did not arrive")
	}
	return result, rcqe.Time, nil
}

// sendLeg sends one datagram of an exchange at the given time and sends it
// again, after the default ACK timeout doubled per consecutive loss, for
// every copy the fabric drops, up to the default retry count.
func sendLeg(from, to *verbs.UDQP, at sim.Time, sge verbs.SGE) error {
	rp := verbs.DefaultRetryPolicy()
	timeout := rp.AckTimeout
	for retry := 0; ; retry++ {
		comp, dropped, err := from.Send(at, to.Handle(), []verbs.SGE{sge}, sge.Length <= verbs.MaxInline)
		if err != nil || !dropped {
			return err
		}
		if retry == rp.RetryCount {
			return fmt.Errorf("datagram dropped %d times", retry+1)
		}
		at = comp.Done + timeout
		timeout *= 2
	}
}
