// Package dlog implements the paper's fourth case study (Section IV-E): a
// distributed log for transaction engines. The whole append path is
// one-sided: an engine reserves consecutive space in the global log with
// RDMA fetch-and-add (the remote sequencer of Section III-E), then writes
// its records into the reserved extent with a single SGL write that gathers
// them straight out of the data tables (Section III-A).
//
// With NUMA awareness (Section III-D), records living in the alternate
// socket's data table are first staged into a NUMA-friendly buffer with a
// CPU copy so the NIC's gather never crosses QPI.
package dlog

import (
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
	"rdmasem/internal/workload"
)

// Config describes a distributed-log deployment.
type Config struct {
	RecordSize int  // bytes per record
	Batch      int  // records appended per reservation
	NUMA       bool // stage alternate-socket records before the gather
	LogBytes   int  // capacity of the global log
}

// DefaultConfig mirrors the Figure 19 setup.
func DefaultConfig() Config {
	return Config{RecordSize: 64, Batch: 1, NUMA: true, LogBytes: 64 << 20}
}

// Log is the global append-only log living on one machine.
type Log struct {
	cfg   Config
	ctx   *verbs.Context
	logMR *verbs.MR
	seqMR *verbs.MR
}

// NewLog places the global log on the machine's NIC socket.
func NewLog(m *cluster.Machine, cfg Config) (*Log, error) {
	if cfg.RecordSize <= 0 || cfg.Batch < 1 || cfg.LogBytes < cfg.RecordSize {
		return nil, fmt.Errorf("dlog: bad record/batch/capacity configuration")
	}
	ctx := verbs.NewContext(m)
	lr, err := m.Alloc(m.Topology().NICSocket(), cfg.LogBytes, 0)
	if err != nil {
		return nil, err
	}
	sr, err := m.Alloc(m.Topology().NICSocket(), 4096, 0)
	if err != nil {
		return nil, err
	}
	return &Log{cfg: cfg, ctx: ctx, logMR: ctx.MustRegisterMR(lr), seqMR: ctx.MustRegisterMR(sr)}, nil
}

// Record returns the record stored at the given sequence number (test
// helper; reads backend memory directly).
func (l *Log) Record(seq uint64) ([]byte, error) {
	off := int(seq) * l.cfg.RecordSize
	if off+l.cfg.RecordSize > l.cfg.LogBytes {
		return nil, fmt.Errorf("dlog: sequence %d beyond capacity", seq)
	}
	out := make([]byte, l.cfg.RecordSize)
	err := l.ctx.Machine().Space().ReadAt(l.logMR.Addr()+mem.Addr(off), out)
	return out, err
}

// Head reads the current sequence counter (reservations handed out so far).
// A failed read propagates: silently reporting head 0 would make a recovery
// replay conclude the log is empty.
func (l *Log) Head() (uint64, error) {
	var b [8]byte
	if err := l.ctx.Machine().Space().ReadAt(l.seqMR.Addr(), b[:]); err != nil {
		return 0, fmt.Errorf("dlog: reading sequence counter: %w", err)
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

// Engine is one transaction engine appending records to the global log.
type Engine struct {
	id     int
	log    *Log
	cfg    Config
	socket topo.SocketID
	qp     *verbs.QP
	seq    *core.RemoteSequencer

	// Data tables on both sockets of the engine's machine: committed
	// transactions leave their records here, and the log append gathers
	// them in place.
	tables  []*verbs.MR
	staging *verbs.MR // NUMA-friendly buffer on the engine's socket
	scratch *verbs.MR

	// payWR and paySGL are reused across AppendPayload posts so the
	// transactional redo-append path stays allocation-free.
	payWR  verbs.SendWR
	paySGL [1]verbs.SGE
}

// SetRetryPolicy applies a reliability configuration to the engine's QP;
// fault scenarios tighten the budget so a dead log host surfaces within the
// test horizon.
func (e *Engine) SetRetryPolicy(p verbs.RetryPolicy) { e.qp.SetRetryPolicy(p) }

// NewEngine creates a transaction engine on the machine's socket.
func NewEngine(id int, m *cluster.Machine, socket topo.SocketID, l *Log) (*Engine, error) {
	ctx := verbs.NewContext(m)
	port := m.SocketPort(socket)
	qp, _, err := verbs.Connect(ctx, port, l.ctx, l.ctx.Machine().SocketPort(l.ctx.Machine().Topology().NICSocket()), verbs.RC)
	if err != nil {
		return nil, err
	}
	e := &Engine{id: id, log: l, cfg: l.cfg, socket: socket, qp: qp}
	for s := 0; s < m.Topology().Sockets(); s++ {
		r, err := m.Alloc(topo.SocketID(s), 1<<20, 0)
		if err != nil {
			return nil, err
		}
		e.tables = append(e.tables, ctx.MustRegisterMR(r))
	}
	stg, err := m.Alloc(socket, 1<<16, 0)
	if err != nil {
		return nil, err
	}
	e.staging = ctx.MustRegisterMR(stg)
	scr, err := m.Alloc(socket, 4096, 0)
	if err != nil {
		return nil, err
	}
	e.scratch = ctx.MustRegisterMR(scr)
	seq, err := core.NewRemoteSequencer(qp,
		verbs.SGE{Addr: e.scratch.Addr(), Length: 8, MR: e.scratch},
		l.seqMR, l.seqMR.Addr())
	if err != nil {
		return nil, err
	}
	e.seq = seq
	return e, nil
}

// slotFor maps a sequence number to its record-aligned home slot in a data
// table. The wrap is by whole record index: the earlier byte-level modulus
// ((seqNo*RecordSize) % (size-RecordSize)) is only record-aligned when
// RecordSize happens to divide the modulus (true for the default 64 B,
// false in general), so a wrapped record would shear across two live
// neighbouring slots.
func (e *Engine) slotFor(seqNo uint64, table *verbs.MR) int {
	slots := uint64(table.Region().Size() / e.cfg.RecordSize)
	return int(seqNo%slots) * e.cfg.RecordSize
}

// AppendBatch reserves Batch consecutive slots and writes Batch records in
// one SGL write. Records alternate between the engine's two data tables
// (modeling transactions touching both sockets) and are stamped with their
// sequence number for end-to-end verification. It returns the first
// reserved sequence number and the completion time.
func (e *Engine) AppendBatch(now sim.Time) (uint64, sim.Time, error) {
	cfg := e.cfg
	tp := e.qp.Context().Machine().Topology().Params

	// Stage 1: reserve space (remote sequencer).
	first, t, err := e.seq.Next(now, uint64(cfg.Batch))
	if err != nil {
		return 0, 0, err
	}
	if (int(first)+cfg.Batch)*cfg.RecordSize > cfg.LogBytes {
		return 0, 0, fmt.Errorf("dlog: log full at sequence %d", first)
	}

	// Stage 2: materialize records in the data tables and assemble the SGL.
	sgl := make([]verbs.SGE, 0, cfg.Batch)
	stageOff := 0
	for i := 0; i < cfg.Batch; i++ {
		seqNo := first + uint64(i)
		table := e.tables[i%len(e.tables)]
		slot := e.slotFor(seqNo, table)
		rec := table.Region().Bytes()[slot : slot+cfg.RecordSize]
		workload.FillValue(rec, seqNo)
		cross := table.Region().Socket() != e.socket
		t += 100 // record finalization
		if cfg.NUMA && cross {
			// Stage the alternate-socket record into the NUMA-friendly
			// buffer (SP-style CPU copy), so the gather stays local.
			dst := e.staging.Region().Bytes()[stageOff : stageOff+cfg.RecordSize]
			copy(dst, rec)
			c := tp.MemcpyTime(cfg.RecordSize, true)
			t += c
			sgl = append(sgl, verbs.SGE{Addr: e.staging.Addr() + mem.Addr(stageOff), Length: cfg.RecordSize, MR: e.staging})
			stageOff += cfg.RecordSize
		} else {
			sgl = append(sgl, verbs.SGE{Addr: table.Addr() + mem.Addr(slot), Length: cfg.RecordSize, MR: table})
		}
	}

	// Stage 3: one SGL write into the reserved extent.
	comp, err := e.qp.PostSend(t, &verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        sgl,
		RemoteAddr: e.log.logMR.Addr() + mem.Addr(int(first)*cfg.RecordSize),
		RemoteKey:  e.log.logMR.RKey(),
	})
	if err == nil {
		err = comp.Err()
	}
	if err != nil {
		// The reserved extent stays unfilled; readers must stop at the
		// last successfully appended record.
		return 0, 0, fmt.Errorf("dlog: append of batch at %d failed: %w", first, err)
	}
	return first, comp.Done, nil
}

// AppendPayload reserves len(payloads) consecutive slots and writes the
// caller's records into the reserved extent in one SGL write — the
// redo-append primitive of the transactional dataplane (internal/txn).
// Records are staged contiguously through the engine's NUMA-friendly
// buffer (an SP-style CPU copy per record); each payload must fit a record
// and shorter payloads are zero-padded. The WR, scatter list and staging
// area are all reused, so the commit hot path stays allocation-free. It
// returns the first reserved sequence number and the completion time.
func (e *Engine) AppendPayload(now sim.Time, payloads [][]byte) (uint64, sim.Time, error) {
	cfg := e.cfg
	n := len(payloads)
	if n == 0 {
		return 0, now, nil
	}
	if n*cfg.RecordSize > e.staging.Region().Size() {
		return 0, 0, fmt.Errorf("dlog: payload batch of %d records exceeds the staging buffer", n)
	}
	tp := e.qp.Context().Machine().Topology().Params

	// Stage 1: reserve space (remote sequencer).
	first, t, err := e.seq.Next(now, uint64(n))
	if err != nil {
		return 0, 0, err
	}
	if (int(first)+n)*cfg.RecordSize > cfg.LogBytes {
		return 0, 0, fmt.Errorf("dlog: log full at sequence %d", first)
	}

	// Stage 2: stage the records contiguously on the engine's socket.
	dst := e.staging.Region().Bytes()
	off := 0
	for _, p := range payloads {
		if len(p) > cfg.RecordSize {
			return 0, 0, fmt.Errorf("dlog: payload of %d bytes exceeds the record size %d", len(p), cfg.RecordSize)
		}
		copy(dst[off:], p)
		for i := off + len(p); i < off+cfg.RecordSize; i++ {
			dst[i] = 0
		}
		c := tp.MemcpyTime(cfg.RecordSize, true)
		t += c
		off += cfg.RecordSize
	}

	// Stage 3: one write into the reserved extent.
	e.paySGL[0] = verbs.SGE{Addr: e.staging.Addr(), Length: off, MR: e.staging}
	e.payWR = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        e.paySGL[:],
		RemoteAddr: e.log.logMR.Addr() + mem.Addr(int(first)*cfg.RecordSize),
		RemoteKey:  e.log.logMR.RKey(),
	}
	comp, err := e.qp.PostSend(t, &e.payWR)
	if err == nil {
		err = comp.Err()
	}
	if err != nil {
		// The reserved extent stays unfilled; the txn layer treats this as
		// an abort before the commit point.
		return 0, 0, fmt.Errorf("dlog: append of batch at %d failed: %w", first, err)
	}
	return first, comp.Done, nil
}
