package core

import (
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// RPCServer is the shared server side of the paper's channel-semantic (RPC)
// baselines: one CPU core that processes one request at a time.
type RPCServer struct {
	cpu     *sim.Resource
	service sim.Duration
	ctx     *verbs.Context
	mr      *verbs.MR
}

// NewRPCServer creates an RPC server on the given context with the given
// per-request CPU service time. The MR provides its receive buffers.
func NewRPCServer(ctx *verbs.Context, mr *verbs.MR, service sim.Duration) (*RPCServer, error) {
	if ctx == nil || mr == nil {
		return nil, fmt.Errorf("core: rpc server needs a context and MR")
	}
	if service <= 0 {
		return nil, fmt.Errorf("core: rpc service time must be positive")
	}
	return &RPCServer{
		cpu:     sim.NewResource("rpc-server/cpu"),
		service: service,
		ctx:     ctx,
		mr:      mr,
	}, nil
}

// RPCClient is one client's connection to an RPCServer.
type RPCClient struct {
	server   *RPCServer
	clientQP *verbs.QP // client side
	serverQP *verbs.QP // server side (peer)
	reqMR    *verbs.MR // client-side buffers (requests out, responses in)
	recvOff  int       // rotating offsets into the buffers

	// Reusable work requests for the two SENDs of each exchange; Call
	// rewrites the lengths in place so closed-loop drivers stay off the heap.
	reqWR  verbs.SendWR
	respWR verbs.SendWR
}

// NewRPCClient connects a client context to the server over the given ports.
func (s *RPCServer) NewRPCClient(client *verbs.Context, clientPort, serverPort int, clientMR *verbs.MR) (*RPCClient, error) {
	cq, sq, err := verbs.Connect(client, clientPort, s.ctx, serverPort, verbs.RC)
	if err != nil {
		return nil, err
	}
	c := &RPCClient{server: s, clientQP: cq, serverQP: sq, reqMR: clientMR}
	c.reqWR = verbs.SendWR{
		Opcode: verbs.OpSend,
		SGL:    []verbs.SGE{{Addr: clientMR.Addr(), MR: clientMR}},
	}
	c.respWR = verbs.SendWR{
		Opcode: verbs.OpSend,
		SGL:    []verbs.SGE{{Addr: s.mr.Addr(), MR: s.mr}},
	}
	return c, nil
}

// Call performs one request/response exchange: SEND to the server, server
// CPU service, SEND back. handler runs at the server's service time and
// returns the value carried back in the response (the RPC payloads
// themselves are opaque). It returns the handler result and the completion
// time at the client.
func (c *RPCClient) Call(now sim.Time, reqSize, respSize int, handler func(at sim.Time) uint64) (uint64, sim.Time, error) {
	s := c.server
	// Post the two receive buffers this exchange needs.
	if err := c.serverQP.PostRecv(verbs.RecvWR{
		SGE: verbs.SGE{Addr: s.mr.Addr(), Length: reqSize, MR: s.mr},
	}); err != nil {
		return 0, 0, err
	}
	if err := c.clientQP.PostRecv(verbs.RecvWR{
		SGE: verbs.SGE{Addr: c.reqMR.Addr(), Length: respSize, MR: c.reqMR},
	}); err != nil {
		return 0, 0, err
	}
	// Request.
	c.reqWR.SGL[0].Length = reqSize
	if _, err := c.clientQP.PostSend(now, &c.reqWR); err != nil {
		return 0, 0, err
	}
	cqe, ok := c.serverQP.RecvCQ().PollOne(sim.MaxTime)
	if !ok {
		return 0, 0, fmt.Errorf("core: rpc request did not arrive")
	}
	// Server CPU: request parsing + handler logic.
	t := s.cpu.Delay(cqe.Time, s.service)
	var result uint64
	if handler != nil {
		result = handler(t)
	}
	// Response.
	c.respWR.SGL[0].Length = respSize
	comp, err := c.serverQP.PostSend(t, &c.respWR)
	if err != nil {
		return 0, 0, err
	}
	// Drain the client's response CQE.
	c.clientQP.RecvCQ().PollOne(sim.MaxTime)
	return result, comp.Done, nil
}
