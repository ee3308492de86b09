// Package hashtable implements the paper's first case study (Section IV-B):
// a disaggregated hashtable whose storage lives on a back-end machine and
// whose front-ends process requests purely with one-sided RDMA.
//
// The three cumulative optimization levels mirror Figure 12:
//
//	Basic:   every entry takes the cold path — obtain a version, write the
//	         versioned entry — over dual-port QPs that ignore where the
//	         remote memory lives, so about half the traffic crosses QPI.
//	NUMA:    per-socket matched QPs with proxy-socket routing (III-D).
//	Reorder: the zipf-hot keys are grouped into blocks in a hot area; the
//	         front-end buffers hot writes and flushes whole blocks after θ
//	         modifications under a per-block remote spinlock with
//	         exponential back-off (III-C + III-E).
package hashtable

import (
	"fmt"
	"sort"

	"rdmasem/internal/cluster"
	"rdmasem/internal/core"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Level selects the cumulative optimization level of Figure 12.
type Level int

// Optimization levels.
const (
	Basic Level = iota
	NUMA
	Reorder
)

func (l Level) String() string {
	switch l {
	case Basic:
		return "basic"
	case NUMA:
		return "+numa"
	default:
		return "+reorder"
	}
}

// Config describes a disaggregated hashtable deployment.
type Config struct {
	Level     Level
	KeySpace  uint64 // number of key slots
	ValueSize int    // bytes per value
	Theta     int    // consolidation threshold for hot blocks (Reorder)
	BlockBits uint   // log2 entries per hot block (paper: 2^t entries)
	HotKeys   []uint64
}

// entrySize is the on-table layout: 8B key, 8B version, then the value.
func (c Config) entrySize() int { return 16 + c.ValueSize }

// Backend owns the table storage on one machine, split evenly across its
// sockets ("the memory is equally allocated to each socket").
type Backend struct {
	cfg     Config
	ctx     *verbs.Context
	tables  []*verbs.MR // one per socket: cold entry slots
	hot     []*verbs.MR // one per socket: hot blocks
	version *verbs.MR   // per-entry version words (cold path FAA targets)
	locks   *verbs.MR   // per-hot-block lock words

	hotIndex  map[uint64]hotSlot // key -> hot block/slot
	hotBlocks int
	lockState []*core.LockState
}

type hotSlot struct {
	block int // global hot block index
	slot  int // entry index within the block
}

// NewBackend lays the table out on the given machine.
func NewBackend(m *cluster.Machine, cfg Config) (*Backend, error) {
	if cfg.KeySpace == 0 || cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("hashtable: key space and value size must be positive")
	}
	if cfg.Theta <= 0 {
		cfg.Theta = 1
	}
	if cfg.BlockBits == 0 {
		cfg.BlockBits = 4 // 16 entries per block
	}
	b := &Backend{cfg: cfg, ctx: verbs.NewContext(m), hotIndex: make(map[uint64]hotSlot)}
	sockets := m.Topology().Sockets()
	// Round up so every reduced key has a slot even when the key space does
	// not divide evenly over the sockets (keys interleave: socket k%sockets,
	// index k/sockets, so the last socket may hold one entry fewer).
	perSocket := (int(cfg.KeySpace) + sockets - 1) / sockets
	for s := 0; s < sockets; s++ {
		r, err := m.Alloc(topo.SocketID(s), perSocket*cfg.entrySize(), 0)
		if err != nil {
			return nil, err
		}
		b.tables = append(b.tables, b.ctx.MustRegisterMR(r))
	}
	vr, err := m.Alloc(m.Topology().NICSocket(), int(cfg.KeySpace)*8, 0)
	if err != nil {
		return nil, err
	}
	b.version = b.ctx.MustRegisterMR(vr)

	// Hot area: blocks of 2^BlockBits entries, distributed round-robin over
	// sockets.
	entriesPerBlock := 1 << cfg.BlockBits
	b.hotBlocks = (len(cfg.HotKeys) + entriesPerBlock - 1) / entriesPerBlock
	if b.hotBlocks == 0 {
		b.hotBlocks = 1
	}
	blocksPerSocket := (b.hotBlocks + sockets - 1) / sockets
	for s := 0; s < sockets; s++ {
		r, err := m.Alloc(topo.SocketID(s), blocksPerSocket*entriesPerBlock*cfg.entrySize(), 0)
		if err != nil {
			return nil, err
		}
		b.hot = append(b.hot, b.ctx.MustRegisterMR(r))
	}
	lr, err := m.Alloc(m.Topology().NICSocket(), b.hotBlocks*8, 0)
	if err != nil {
		return nil, err
	}
	b.locks = b.ctx.MustRegisterMR(lr)
	b.lockState = make([]*core.LockState, b.hotBlocks)
	for i := range b.lockState {
		b.lockState[i] = core.NewLockState()
	}
	// "According to the value of an entry's key, we organize these hot
	// entries as several blocks": sorting by key value scatters the very
	// hottest keys across blocks, so block locks don't all converge on the
	// block holding the top ranks.
	sorted := append([]uint64(nil), cfg.HotKeys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, k := range sorted {
		b.hotIndex[k] = hotSlot{block: i / entriesPerBlock, slot: i % entriesPerBlock}
	}
	return b, nil
}

// Machine returns the back-end host.
func (b *Backend) Machine() *cluster.Machine { return b.ctx.Machine() }

// coldLocation returns the MR and address of a cold entry slot. The key is
// reduced mod KeySpace first — the same reduction versionAddr applies — so a
// slot and its version word always describe the same logical key, for any
// key and any KeySpace/sockets ratio.
func (b *Backend) coldLocation(key uint64) (*verbs.MR, mem.Addr) {
	sockets := uint64(len(b.tables))
	k := key % b.cfg.KeySpace
	s := k % sockets // interleave keys over sockets
	idx := k / sockets
	mr := b.tables[s]
	return mr, mr.Addr() + mem.Addr(idx*uint64(b.cfg.entrySize()))
}

// hotLocation returns the MR, block base address and block size of a hot
// block.
func (b *Backend) hotLocation(block int) (*verbs.MR, mem.Addr, int) {
	sockets := len(b.hot)
	blockBytes := (1 << b.cfg.BlockBits) * b.cfg.entrySize()
	mr := b.hot[block%sockets]
	idx := block / sockets
	return mr, mr.Addr() + mem.Addr(idx*blockBytes), blockBytes
}

// lockAddr returns the remote address of a hot block's lock word.
func (b *Backend) lockAddr(block int) mem.Addr {
	return b.locks.Addr() + mem.Addr(block*8)
}

// versionAddr returns the remote address of a cold entry's version word.
func (b *Backend) versionAddr(key uint64) mem.Addr {
	return b.version.Addr() + mem.Addr((key%b.cfg.KeySpace)*8)
}

// ReadCold reads a cold entry's stored value directly from backend memory
// (test helper: bypasses the network).
func (b *Backend) ReadCold(key uint64, out []byte) error {
	_, addr := b.coldLocation(key)
	return b.Machine().Space().ReadAt(addr+16, out)
}

// ReadHot reads a hot entry's stored value directly from backend memory
// (test helper).
func (b *Backend) ReadHot(key uint64, out []byte) error {
	hs, ok := b.hotIndex[key]
	if !ok {
		return fmt.Errorf("hashtable: key %d is not hot", key)
	}
	_, base, _ := b.hotLocation(hs.block)
	off := hs.slot * b.cfg.entrySize()
	return b.Machine().Space().ReadAt(base+mem.Addr(off+16), out)
}

// FrontEnd is one request-processing client bound to a socket of a client
// machine.
type FrontEnd struct {
	id      int
	backend *Backend
	cfg     Config
	core    topo.SocketID
	engine  *core.Engine
	scratch *verbs.MR // staging: entry assembly + consolidator shadow

	// Reorder-level state: one consolidator per backend socket (hot blocks
	// are distributed round-robin over the backend's per-socket hot MRs).
	cons      []*core.Consolidator
	consMRs   []*verbs.MR
	locks     []*core.RemoteLock
	entryTmp  []byte
	readTmp   []byte      // Get staging: reused so the hot path stays alloc-free
	rdSGL     []verbs.SGE // cold Get scatter list, reused per op
	hotHits   int64
	coldPaths int64

	// Cold-path versioning: a per-front-end epoch reserved in bulk with one
	// remote fetch-and-add per epochSpan writes. A per-entry FAA (the
	// paper's literal description) would cap the whole table at the NIC's
	// ~2.4 MOPS/port atomic rate — far below the paper's own Figure 12
	// numbers — so version numbers combine the coarse remote epoch with a
	// local sequence, preserving global uniqueness and monotonicity.
	epoch     uint64
	epochSeq  uint64
	epochLeft int
}

// epochSpan is the number of cold writes one epoch reservation covers.
const epochSpan = 64

// The front-end staging MR is a fixed 4 KiB, carved into regions: atomic
// results at 0, entry assembly at 16, lock scratch at 512, cold-read staging
// at coldReadOff. An entry must fit between coldReadOff and the end of the
// MR or the cold Get would post an SGE past the registered region.
const (
	scratchSize = 4096
	coldReadOff = 1024
)

// ErrValueTooLarge reports a value size whose entry no longer fits the
// front-end's fixed scratch MR.
var ErrValueTooLarge = fmt.Errorf("hashtable: value too large for the %d-byte scratch MR", scratchSize)

// MaxValueSize is the largest ValueSize a front-end can serve: the entry
// staged at coldReadOff must end within the scratch MR.
const MaxValueSize = scratchSize - coldReadOff - 16

// NewFrontEnd creates a front-end on the given machine socket.
func NewFrontEnd(id int, m *cluster.Machine, coreSocket topo.SocketID, b *Backend) (*FrontEnd, error) {
	if b.cfg.ValueSize > MaxValueSize {
		return nil, fmt.Errorf("%w: value size %d exceeds the maximum %d", ErrValueTooLarge, b.cfg.ValueSize, MaxValueSize)
	}
	ctx := verbs.NewContext(m)
	mode := core.Basic
	if b.cfg.Level >= NUMA {
		mode = core.Matched
	}
	eng, err := core.NewEngine(ctx, []*verbs.Context{b.ctx}, mode)
	if err != nil {
		return nil, err
	}
	blockBytes := (1 << b.cfg.BlockBits) * b.cfg.entrySize()
	// Scratch: atomic results, entry assembly, read staging.
	sr, err := m.Alloc(coreSocket, scratchSize, 0)
	if err != nil {
		return nil, err
	}
	f := &FrontEnd{
		id:       id,
		backend:  b,
		cfg:      b.cfg,
		core:     coreSocket,
		engine:   eng,
		scratch:  ctx.MustRegisterMR(sr),
		entryTmp: make([]byte, b.cfg.entrySize()),
		readTmp:  make([]byte, b.cfg.entrySize()),
		rdSGL:    make([]verbs.SGE, 1),
	}
	if b.cfg.Level >= Reorder {
		if err := f.initReorder(ctx, m, coreSocket, blockBytes); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// initReorder wires one hot-area consolidator per backend socket plus the
// per-block remote spinlocks. Global hot block g lives on backend socket
// g%sockets at local index g/sockets.
func (f *FrontEnd) initReorder(ctx *verbs.Context, m *cluster.Machine, coreSocket topo.SocketID, blockBytes int) error {
	b := f.backend
	sockets := b.Machine().Topology().Sockets()
	f.locks = make([]*core.RemoteLock, b.hotBlocks)
	bo := core.DefaultBackoff()
	// The shadow caches the whole hot area ("front-end will buffer hot
	// entries"), so blocks are never evicted mid-stream.
	blocksPerSocket := (b.hotBlocks + sockets - 1) / sockets
	// One matched QP per backend socket carries that socket's lock CAS
	// traffic and block flushes.
	for s := 0; s < sockets; s++ {
		qp, _, err := verbs.Connect(ctx, s%m.NIC().Ports(), b.ctx, s%b.Machine().NIC().Ports(), verbs.RC)
		if err != nil {
			return err
		}
		shadowMR, err := f.subMR(ctx, m, (blocksPerSocket+1)*blockBytes)
		if err != nil {
			return err
		}
		s := s
		cons, err := core.NewConsolidator(core.ConsolidatorConfig{
			QP:         qp,
			LocalMR:    shadowMR,
			RemoteMR:   b.hot[s],
			RemoteBase: b.hot[s].Addr(),
			BlockSize:  blockBytes,
			Theta:      b.cfg.Theta,
			MaxBlocks:  blocksPerSocket,
			PreFlush: func(now sim.Time, local int) (sim.Time, error) {
				return f.locks[local*sockets+s].Acquire(now)
			},
			PostFlush: func(now sim.Time, local int) (sim.Time, error) {
				return f.locks[local*sockets+s].Release(now)
			},
		})
		if err != nil {
			return err
		}
		f.cons = append(f.cons, cons)
		f.consMRs = append(f.consMRs, shadowMR)
		// Locks for the blocks on this socket ride this QP.
		for g := s; g < b.hotBlocks; g += sockets {
			scr := verbs.SGE{Addr: f.scratch.Addr() + 512, Length: 8, MR: f.scratch}
			lk, err := core.NewRemoteLock(b.lockState[g], qp, scr, b.locks, b.lockAddr(g), f.id, &bo)
			if err != nil {
				return err
			}
			f.locks[g] = lk
		}
	}
	return nil
}

// subMR allocates and registers a dedicated shadow MR on the front-end's
// socket (each consolidator needs its own local MR).
func (f *FrontEnd) subMR(ctx *verbs.Context, m *cluster.Machine, size int) (*verbs.MR, error) {
	r, err := m.Alloc(f.core, size, 0)
	if err != nil {
		return nil, err
	}
	return ctx.RegisterMR(r)
}

// buildEntry assembles the wire layout of an entry into entryTmp.
func (f *FrontEnd) buildEntry(key uint64, version uint64, value []byte) []byte {
	e := f.entryTmp
	putU64(e[0:], key)
	putU64(e[8:], version)
	copy(e[16:], value)
	return e[:16+len(value)]
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Put stores value under key, returning the completion time.
func (f *FrontEnd) Put(now sim.Time, key uint64, value []byte) (sim.Time, error) {
	if len(value) != f.cfg.ValueSize {
		return 0, fmt.Errorf("hashtable: value size %d, want %d", len(value), f.cfg.ValueSize)
	}
	if f.cfg.Level >= Reorder {
		if hs, ok := f.backend.hotIndex[key]; ok {
			return f.putHot(now, hs, key, value)
		}
	}
	return f.putCold(now, key, value)
}

// putHot buffers the entry in the block shadow; every θ-th modification of a
// block flushes it under the block's remote lock.
func (f *FrontEnd) putHot(now sim.Time, hs hotSlot, key uint64, value []byte) (sim.Time, error) {
	f.hotHits++
	entry := f.buildEntry(key, 0, value)
	s, off := f.hotOffset(hs)
	return f.cons[s].Write(now, off, entry)
}

// hotOffset maps a hot slot to (backend socket, byte offset within that
// socket's hot extent).
func (f *FrontEnd) hotOffset(hs hotSlot) (int, int) {
	sockets := len(f.cons)
	blockBytes := (1 << f.cfg.BlockBits) * f.cfg.entrySize()
	s := hs.block % sockets
	local := hs.block / sockets
	return s, local*blockBytes + hs.slot*f.cfg.entrySize()
}

// putCold takes the multi-version path: obtain a fresh version (a remote
// fetch-and-add amortized over epochSpan writes), then write the versioned
// entry.
func (f *FrontEnd) putCold(now sim.Time, key uint64, value []byte) (sim.Time, error) {
	f.coldPaths++
	b := f.backend
	t := now
	if f.epochLeft == 0 {
		scr := verbs.SGE{Addr: f.scratch.Addr(), Length: 8, MR: f.scratch}
		old, at, err := f.engine.FetchAdd(now, f.core, scr, 0, b.versionAddr(key), b.version, 1)
		if err != nil {
			// A failed version fetch means the epoch was never claimed; no
			// entry is written with a stale version.
			return 0, fmt.Errorf("hashtable: version fetch-add: %w", err)
		}
		f.epoch = old + 1
		f.epochSeq = 0
		f.epochLeft = epochSpan
		t = at
	}
	f.epochLeft--
	f.epochSeq++
	version := f.epoch<<24 | f.epochSeq
	entry := f.buildEntry(key, version, value)
	eaddr := f.scratch.Addr() + 16
	copy(f.scratch.Region().Bytes()[16:], entry)
	mr, dst := b.coldLocation(key)
	return f.engine.Write(t, f.core,
		[]verbs.SGE{{Addr: eaddr, Length: len(entry), MR: f.scratch}},
		0, dst, mr)
}

// Get fetches the value under key into out, returning the completion time.
func (f *FrontEnd) Get(now sim.Time, key uint64, out []byte) (sim.Time, error) {
	if len(out) != f.cfg.ValueSize {
		return 0, fmt.Errorf("hashtable: out size %d, want %d", len(out), f.cfg.ValueSize)
	}
	b := f.backend
	if f.cfg.Level >= Reorder {
		if hs, ok := b.hotIndex[key]; ok {
			s, off := f.hotOffset(hs)
			buf := f.readTmp
			t, err := f.cons[s].Read(now, off, len(buf), buf)
			if err != nil {
				return 0, err
			}
			copy(out, buf[16:])
			return t, nil
		}
	}
	// Cold read: one RDMA read of the whole entry.
	mr, src := b.coldLocation(key)
	buf := f.scratch.Region().Bytes()
	f.rdSGL[0] = verbs.SGE{Addr: f.scratch.Addr() + coldReadOff, Length: f.cfg.entrySize(), MR: f.scratch}
	t, err := f.engine.Read(now, f.core, f.rdSGL, 0, src, mr)
	if err != nil {
		return 0, err
	}
	copy(out, buf[coldReadOff+16:coldReadOff+16+f.cfg.ValueSize])
	return t, nil
}

// Flush forces all pending hot blocks out (end of a measurement phase).
func (f *FrontEnd) Flush(now sim.Time) (sim.Time, error) {
	done := now
	for _, c := range f.cons {
		t, err := c.Flush(now)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	return done, nil
}

// Stats reports the hot/cold path split.
func (f *FrontEnd) Stats() (hot, cold int64) { return f.hotHits, f.coldPaths }
