package core

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Mode selects how the Engine wires QPs across sockets (Section III-D,
// Figure 9).
type Mode int

// Engine wiring modes.
const (
	// Basic uses both ports (one QP per local socket and peer) but routes
	// without regard for where the remote memory lives, so roughly half
	// the responder-side DMAs cross QPI.
	Basic Mode = iota
	// Matched binds one QP per (socket, peer) along matched ports and
	// routes cross-socket requests through the proxy socket's shared-memory
	// queues: s x 2m QPs instead of s^2 x 2m.
	Matched
	// AllToAll gives every local socket a QP to every remote socket:
	// direct paths, but s^2 x 2m QPs that thrash the RNIC's QP cache at
	// scale.
	AllToAll
)

func (m Mode) String() string {
	switch m {
	case Basic:
		return "basic"
	case Matched:
		return "matched+proxy"
	default:
		return "all-to-all"
	}
}

// Engine is the NUMA-aware connection manager of one machine: it owns the
// QPs toward every peer and routes each request over the QP whose port
// matches the remote memory's socket, inserting the proxy-socket hop when
// the requesting core lives elsewhere.
type Engine struct {
	local *verbs.Context
	peers []*verbs.Context
	mode  Mode
	// qps[peer][localSocket][remoteSocket]; Basic collapses the socket dims.
	qps      map[int]map[topo.SocketID]map[topo.SocketID]*verbs.QP
	bounce   map[topo.SocketID]*verbs.MR // per-socket proxy payload buffers
	proxyIPC sim.Duration
	proxied  int64
	direct   int64

	// wr and asgl are reused across posts: PostSend never retains the WR
	// past the call, so Read/Write/FetchAdd stay allocation-free.
	wr   verbs.SendWR
	asgl [1]verbs.SGE
}

// maxProxyPayload bounds the payload that rides the proxy's shared-memory
// message; larger requests gather from their original socket across QPI.
// The per-node daemon (internal/proxy) shares the bound.
const maxProxyPayload = proxy.MaxPayload

// NewEngine connects the local context to every peer according to the mode.
func NewEngine(local *verbs.Context, peers []*verbs.Context, mode Mode) (*Engine, error) {
	if local == nil || len(peers) == 0 {
		return nil, fmt.Errorf("core: engine needs a local context and peers")
	}
	tp := local.Machine().Topology().Params
	e := &Engine{
		local: local,
		peers: peers,
		mode:  mode,
		qps:   make(map[int]map[topo.SocketID]map[topo.SocketID]*verbs.QP),
		// One request push and one result pull through shared-memory
		// queues: two cache-line transfers across QPI. Same hop the
		// per-node daemon charges (internal/proxy).
		proxyIPC: proxy.HopCost(tp),
	}
	sockets := local.Machine().Topology().Sockets()
	if mode == Matched {
		e.bounce = make(map[topo.SocketID]*verbs.MR)
		for s := 0; s < sockets; s++ {
			r, err := local.Machine().Alloc(topo.SocketID(s), 2*maxProxyPayload, 0)
			if err != nil {
				return nil, err
			}
			mr, err := local.RegisterMR(r)
			if err != nil {
				return nil, err
			}
			e.bounce[topo.SocketID(s)] = mr
		}
	}
	for pi, peer := range peers {
		e.qps[pi] = make(map[topo.SocketID]map[topo.SocketID]*verbs.QP)
		switch mode {
		case Basic:
			for s := 0; s < sockets; s++ {
				ls := topo.SocketID(s)
				qp, _, err := verbs.Connect(local, local.Machine().SocketPort(ls), peer, peer.Machine().SocketPort(ls), verbs.RC)
				if err != nil {
					return nil, err
				}
				e.qps[pi][ls] = map[topo.SocketID]*verbs.QP{ls: qp}
			}
		case Matched:
			for s := 0; s < sockets; s++ {
				ls := topo.SocketID(s)
				qp, _, err := verbs.Connect(local, local.Machine().SocketPort(ls), peer, peer.Machine().SocketPort(ls), verbs.RC)
				if err != nil {
					return nil, err
				}
				e.qps[pi][ls] = map[topo.SocketID]*verbs.QP{ls: qp}
			}
		case AllToAll:
			for ls := 0; ls < sockets; ls++ {
				m := make(map[topo.SocketID]*verbs.QP)
				for rs := 0; rs < sockets; rs++ {
					qp, _, err := verbs.Connect(local, local.Machine().SocketPort(topo.SocketID(ls)), peer, peer.Machine().SocketPort(topo.SocketID(rs)), verbs.RC)
					if err != nil {
						return nil, err
					}
					m[topo.SocketID(rs)] = qp
				}
				e.qps[pi][topo.SocketID(ls)] = m
			}
		}
	}
	return e, nil
}

// QPCount returns the total number of QPs the engine established, the
// quantity the paper's s x 2m vs s^2 x 2m comparison is about.
func (e *Engine) QPCount() int {
	n := 0
	for _, bySock := range e.qps {
		for _, byRemote := range bySock {
			n += len(byRemote)
		}
	}
	return n
}

// ProxyStats reports how many requests took the proxy hop vs went direct.
func (e *Engine) ProxyStats() (proxied, direct int64) { return e.proxied, e.direct }

// route picks the QP for a request from the given core socket to remote
// memory on the given peer, returning the QP and the extra virtual-time cost
// of the proxy hop (zero for direct paths).
func (e *Engine) route(core topo.SocketID, peer int, remoteAddr mem.Addr) (*verbs.QP, sim.Duration, error) {
	bySock, ok := e.qps[peer]
	if !ok {
		return nil, 0, fmt.Errorf("core: unknown peer %d", peer)
	}
	rs, err := e.peers[peer].Machine().Space().SocketOf(remoteAddr)
	if err != nil {
		return nil, 0, err
	}
	switch e.mode {
	case Basic:
		// Post from the core's own port, ignore the remote memory socket.
		e.direct++
		c := core % topo.SocketID(len(bySock))
		return bySock[c][c], 0, nil
	case Matched:
		qp := bySock[rs][rs]
		if core == rs {
			e.direct++
			return qp, 0, nil
		}
		// Proxy socket: hand the request to the core on socket rs via the
		// shared-memory queues; that core posts on its own matched QP.
		e.proxied++
		return qp, e.proxyIPC, nil
	default: // AllToAll
		e.direct++
		return bySock[core][rs], 0, nil
	}
}

// Write performs a NUMA-routed remote write of the local SGEs to remoteAddr.
// When the request takes the proxy hop and the payload is small, it rides
// the shared-memory message into a bounce buffer on the proxy's socket so
// the NIC gather never crosses QPI.
func (e *Engine) Write(now sim.Time, core topo.SocketID, sgl []verbs.SGE, peer int, remoteAddr mem.Addr, rmr *verbs.MR) (sim.Time, error) {
	qp, extra, err := e.route(core, peer, remoteAddr)
	if err != nil {
		return 0, err
	}
	if extra > 0 {
		if staged, cost, ok := e.stage(qp.PortSocket(), sgl); ok {
			sgl = staged
			extra += cost
		}
	}
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        sgl,
		RemoteAddr: remoteAddr,
		RemoteKey:  rmr.RKey(),
	}
	comp, err := qp.PostSend(now+extra, &e.wr)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// stage copies a small payload into the proxy socket's bounce buffer,
// returning the substituted SGL and the copy's CPU cost.
func (e *Engine) stage(proxySocket topo.SocketID, sgl []verbs.SGE) ([]verbs.SGE, sim.Duration, bool) {
	total := 0
	for _, s := range sgl {
		total += s.Length
	}
	b := e.bounce[proxySocket]
	if b == nil || total > maxProxyPayload {
		return nil, 0, false
	}
	dst := b.Region().Bytes()
	off := 0
	for _, s := range sgl {
		src, err := s.MR.Region().Slice(s.Addr, s.Length)
		if err != nil {
			return nil, 0, false
		}
		copy(dst[off:], src)
		off += s.Length
	}
	tp := e.local.Machine().Topology().Params
	return []verbs.SGE{{Addr: b.Addr(), Length: total, MR: b}}, tp.MemcpyTime(total, true), true
}

// Read performs a NUMA-routed remote read into the local SGEs.
func (e *Engine) Read(now sim.Time, core topo.SocketID, sgl []verbs.SGE, peer int, remoteAddr mem.Addr, rmr *verbs.MR) (sim.Time, error) {
	qp, extra, err := e.route(core, peer, remoteAddr)
	if err != nil {
		return 0, err
	}
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpRead,
		SGL:        sgl,
		RemoteAddr: remoteAddr,
		RemoteKey:  rmr.RKey(),
	}
	comp, err := qp.PostSend(now+extra, &e.wr)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

// FetchAdd performs a NUMA-routed remote fetch-and-add, returning the old
// value and its completion time.
func (e *Engine) FetchAdd(now sim.Time, core topo.SocketID, scratch verbs.SGE, peer int, remoteAddr mem.Addr, rmr *verbs.MR, add uint64) (uint64, sim.Time, error) {
	qp, extra, err := e.route(core, peer, remoteAddr)
	if err != nil {
		return 0, 0, err
	}
	e.asgl[0] = scratch
	e.wr = verbs.SendWR{
		Opcode:     verbs.OpFetchAdd,
		SGL:        e.asgl[:],
		RemoteAddr: remoteAddr,
		RemoteKey:  rmr.RKey(),
		CompareAdd: add,
	}
	comp, err := qp.PostSend(now+extra, &e.wr)
	if err != nil {
		return 0, 0, err
	}
	return comp.OldValue, comp.Done, nil
}

// QP exposes the QP the engine would use for a (core, peer, remote socket)
// triple — used by the applications that need to post custom WRs (batched
// SGL writes) over NUMA-routed connections.
func (e *Engine) QP(core topo.SocketID, peer int, remoteSocket topo.SocketID) (*verbs.QP, sim.Duration) {
	bySock := e.qps[peer]
	switch e.mode {
	case Basic:
		c := core % topo.SocketID(len(bySock))
		return bySock[c][c], 0
	case Matched:
		qp := bySock[remoteSocket][remoteSocket]
		if core == remoteSocket {
			return qp, 0
		}
		return qp, e.proxyIPC
	default:
		return bySock[core][remoteSocket], 0
	}
}
