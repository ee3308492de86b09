package adaptive

import (
	"fmt"

	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// Config builds a Runtime: one QP's worth of adaptive IO machinery.
type Config struct {
	QP *verbs.QP
	// LocalMR backs the consolidator shadow, its read scratch, and the
	// native path's staging slot: it must hold (MaxBlocks+2)*BlockSize
	// bytes.
	LocalMR *verbs.MR
	// Staging is the SP gather buffer; nil removes SP from the strategy
	// candidate set.
	Staging    *verbs.MR
	RemoteMR   *verbs.MR
	RemoteBase mem.Addr
	BlockSize  int
	Theta      int          // initial consolidation threshold
	Lease      sim.Duration // consolidation lease (0 = none, FIFO eviction)
	MaxBlocks  int          // consolidator shadow capacity

	// Params configures the controller. Params.Shadow pins the runtime to
	// the static Strategy/UseCons below with the controller observing only
	// — the baseline configuration of the adaptive experiment.
	Params Params

	Strategy core.Strategy // initial (shadow: permanent) batch strategy
	UseCons  bool          // shadow: permanent small-write path
}

// Runtime routes one client's batched and small writes through the live
// knobs an attached Controller retunes: batch strategy and doorbell depth
// for WriteBatch, native-vs-consolidated (and θ) for SmallWrite. In shadow
// mode it is exactly the static pipeline with a measuring controller along
// for the ride.
type Runtime struct {
	cfg     Config
	batcher *core.Batcher
	cons    *core.Consolidator
	ctrl    *Controller

	directOff int // LocalMR offset of the native path's staging slot
	wr        verbs.SendWR
	sge       [1]verbs.SGE
}

// NewRuntime validates the configuration, builds the batcher, consolidator
// and controller, and attaches the controller to the QP's post path.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.QP == nil || cfg.LocalMR == nil || cfg.RemoteMR == nil {
		return nil, fmt.Errorf("adaptive: runtime needs qp, local MR and remote MR")
	}
	if cfg.BlockSize <= 0 || cfg.Theta <= 0 || cfg.MaxBlocks <= 0 {
		return nil, fmt.Errorf("adaptive: block size, theta and max blocks must be positive")
	}
	need := cfg.BlockSize * (cfg.MaxBlocks + 2)
	if cfg.LocalMR.Region().Size() < need {
		return nil, fmt.Errorf("adaptive: local MR too small: %d < %d",
			cfg.LocalMR.Region().Size(), need)
	}
	b, err := core.NewBatcher(cfg.Strategy, cfg.QP, cfg.LocalMR, cfg.Staging, cfg.RemoteMR)
	if err != nil {
		return nil, err
	}
	cons, err := core.NewConsolidator(core.ConsolidatorConfig{
		QP:         cfg.QP,
		LocalMR:    cfg.LocalMR,
		RemoteMR:   cfg.RemoteMR,
		RemoteBase: cfg.RemoteBase,
		BlockSize:  cfg.BlockSize,
		Theta:      cfg.Theta,
		Lease:      cfg.Lease,
		MaxBlocks:  cfg.MaxBlocks,
	})
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:       cfg,
		batcher:   b,
		cons:      cons,
		directOff: cfg.BlockSize * (cfg.MaxBlocks + 1),
	}
	r.ctrl = NewController(cfg.Params, cfg.QP, b, cons)
	cfg.QP.SetPostObserver(r.ctrl)
	return r, nil
}

// Controller exposes the runtime's controller (decision log, live knobs).
func (r *Runtime) Controller() *Controller { return r.ctrl }

// WriteBatch writes the fragments contiguously at remoteAddr with whatever
// strategy and doorbell depth the controller currently holds.
func (r *Runtime) WriteBatch(now sim.Time, frags []core.Fragment, remoteAddr mem.Addr) (core.BatchResult, error) {
	now = r.ctrl.advance(now)
	res, err := r.batcher.WriteBatch(now, frags, remoteAddr)
	if err != nil {
		return res, err
	}
	total := 0
	for _, f := range frags {
		total += f.Length
	}
	r.ctrl.noteBatch(now, len(frags), total, res.Done)
	return res, nil
}

// SmallWrite lands one sub-block write at remoteBase+off, through the
// consolidator when the controller has it switched in and as a single native
// RDMA write otherwise.
func (r *Runtime) SmallWrite(now sim.Time, off int, data []byte) (sim.Time, error) {
	now = r.ctrl.advance(now)
	var done sim.Time
	var err error
	if r.useCons() {
		done, err = r.cons.Write(now, off, data)
	} else {
		done, err = r.directWrite(now, off, data)
	}
	if err != nil {
		return 0, err
	}
	r.ctrl.noteSmall(now, off/r.cfg.BlockSize, len(data), done)
	return done, nil
}

// Flush drains everything the consolidator still holds (end of run).
func (r *Runtime) Flush(now sim.Time) (sim.Time, error) {
	return r.cons.Flush(now)
}

// useCons picks the small-write path: the static pin in shadow mode, the
// controller's live decision otherwise.
func (r *Runtime) useCons() bool {
	if r.cfg.Params.Shadow {
		return r.cfg.UseCons
	}
	return r.ctrl.usingCons()
}

// directWrite is the native path fig8 calls "x=0": stage the payload, post
// one RDMA write. Its costs mirror the consolidator's absorb path (the same
// CPU memcpy) plus the per-write network round trip consolidation saves.
func (r *Runtime) directWrite(now sim.Time, off int, data []byte) (sim.Time, error) {
	if len(data) == 0 || len(data) > r.cfg.BlockSize {
		return 0, fmt.Errorf("adaptive: direct write of %d bytes outside (0,%d]", len(data), r.cfg.BlockSize)
	}
	slot := r.cfg.LocalMR.Region().Bytes()[r.directOff : r.directOff+len(data)]
	copy(slot, data)
	tp := r.cfg.QP.Context().Machine().Topology().Params
	now += tp.MemcpyTime(len(data), false)
	r.sge[0] = verbs.SGE{
		Addr:   r.cfg.LocalMR.Addr() + mem.Addr(r.directOff),
		Length: len(data),
		MR:     r.cfg.LocalMR,
	}
	r.wr = verbs.SendWR{
		Opcode:     verbs.OpWrite,
		SGL:        r.sge[:],
		RemoteAddr: r.cfg.RemoteBase + mem.Addr(off),
		RemoteKey:  r.cfg.RemoteMR.RKey(),
	}
	comp, err := r.cfg.QP.PostSend(now, &r.wr)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}
