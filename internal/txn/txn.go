// Package txn is a deterministic optimistic-transaction layer over
// one-sided verbs — the Storm-style transactional dataplane of ROADMAP
// item 2, fusing the versioned-entry discipline of internal/apps/hashtable
// with the remote sequencer and log of internal/apps/dlog.
//
// The store keeps every entry as [8B key | 8B version | 8B checksum |
// value], interleaved over the backend's sockets exactly like the (fixed)
// hashtable cold layout, except that the version word lives *inside* the
// entry — slot and version can never alias because they are the same
// address. Versions are even when a committed entry is readable and odd
// while a committer holds its lock bit.
//
// A transaction runs in three phases, all over one-sided verbs:
//
//	Read:   one RDMA READ fetches the whole entry; the client validates
//	        the stored key, an even version and the checksum locally, and
//	        re-reads with clamped back-off when it caught a torn or locked
//	        entry (counted as txn/read-retry).
//	Lock:   commit CASes each written entry's version word from the
//	        version observed at read time v to v|1, in global key order.
//	        A CAS that observes any other value means a conflicting
//	        committer won — the locks taken so far are CASed back and the
//	        transaction aborts (txn/abort), to be retried by the caller
//	        (txn/retry).
//	Commit: a redo record per write is appended through the dlog remote
//	        sequencer (the commit point — the log order is the commit
//	        order), then each entry is published with a single WRITE
//	        carrying the new value, checksum and even version v+2, which
//	        also releases the lock.
//
// Retransmit-awareness comes from the reliability layer's pinned
// exactly-once atomics: a retried lock CAS never re-applies, so its
// completion value is the true pre-image and the lock/abort decision is
// stable even when the ACK, not the request, was lost. See DESIGN.md §16.
package txn

import (
	"errors"
	"fmt"

	"rdmasem/internal/apps/dlog"
	"rdmasem/internal/cluster"
	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// Config describes a transactional KV deployment.
type Config struct {
	KeySpace  uint64 // number of entries
	ValueSize int    // bytes per value
	MaxWrites int    // write-set capacity per transaction (default 4)
	LogBytes  int    // redo-log capacity (default 16 MiB)
}

// entrySize is the on-table layout: key, version, checksum, then the value.
func (c Config) entrySize() int { return 24 + c.ValueSize }

// redoSize is the redo-record layout: txn id, key, new version, value.
func (c Config) redoSize() int { return 24 + c.ValueSize }

// Typed failures of the transaction protocol.
var (
	// ErrConflict reports a lock CAS that observed a version other than
	// the one read optimistically: a conflicting transaction committed (or
	// holds the lock). The transaction aborted cleanly; retry it.
	ErrConflict = errors.New("txn: write-write conflict")
	// ErrTornRead reports an entry that stayed locked or checksum-invalid
	// past the read back-off budget.
	ErrTornRead = errors.New("txn: entry unreadable after retries")
	// ErrWriteSetFull reports more Puts than MaxWrites.
	ErrWriteSetFull = errors.New("txn: write set full")
	// ErrNotRead reports a Put for a key the transaction never read: the
	// optimistic protocol needs the observed version as the CAS compare.
	ErrNotRead = errors.New("txn: put without a prior get")
	// ErrApplyFailed reports a transaction past its commit point (the redo
	// append) whose entry publication failed; the redo log has the
	// authoritative record.
	ErrApplyFailed = errors.New("txn: publish after commit point failed")
)

// readBudget bounds the torn/locked re-read loop of one Get.
const readBudget = 64

// Store owns the transactional table on one machine plus the redo log the
// committers sequence through.
type Store struct {
	cfg    Config
	ctx    *verbs.Context
	tables []*verbs.MR // per-socket entry slots, hashtable-interleaved
	redo   *dlog.Log
}

// NewStore lays the table out over the machine's sockets and initializes
// every entry to (key, version 0, valid checksum, zero value), so the very
// first optimistic read validates.
func NewStore(m *cluster.Machine, cfg Config) (*Store, error) {
	if cfg.KeySpace == 0 || cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("txn: key space and value size must be positive")
	}
	if cfg.MaxWrites <= 0 {
		cfg.MaxWrites = 4
	}
	if cfg.LogBytes == 0 {
		cfg.LogBytes = 16 << 20
	}
	s := &Store{cfg: cfg, ctx: verbs.NewContext(m)}
	sockets := m.Topology().Sockets()
	perSocket := (int(cfg.KeySpace) + sockets - 1) / sockets
	for so := 0; so < sockets; so++ {
		r, err := m.Alloc(topo.SocketID(so), perSocket*cfg.entrySize(), 0)
		if err != nil {
			return nil, err
		}
		s.tables = append(s.tables, s.ctx.MustRegisterMR(r))
	}
	log, err := dlog.NewLog(m, dlog.Config{
		RecordSize: cfg.redoSize(), Batch: 1, NUMA: true, LogBytes: cfg.LogBytes,
	})
	if err != nil {
		return nil, err
	}
	s.redo = log

	zero := make([]byte, cfg.ValueSize)
	buf := make([]byte, cfg.entrySize())
	for k := uint64(0); k < cfg.KeySpace; k++ {
		putU64(buf[0:], k)
		putU64(buf[8:], 0)
		putU64(buf[16:], checksum(k, 0, zero))
		copy(buf[24:], zero)
		mr, addr := s.entryLocation(k)
		copy(mr.Region().Bytes()[addr-mr.Addr():], buf)
	}
	return s, nil
}

// Machine returns the store host.
func (s *Store) Machine() *cluster.Machine { return s.ctx.Machine() }

// Redo returns the store's redo log (recovery replays read it).
func (s *Store) Redo() *dlog.Log { return s.redo }

// Config returns the deployment shape.
func (s *Store) Config() Config { return s.cfg }

// entryLocation maps a key to the MR and address of its entry. Keys reduce
// mod KeySpace and interleave over sockets: socket k%sockets, index
// k/sockets — the same derivation for the slot and (at +8) its version
// word.
func (s *Store) entryLocation(key uint64) (*verbs.MR, mem.Addr) {
	k := key % s.cfg.KeySpace
	sockets := uint64(len(s.tables))
	mr := s.tables[k%sockets]
	return mr, mr.Addr() + mem.Addr((k/sockets)*uint64(s.cfg.entrySize()))
}

// Entry reads an entry directly from backend memory (test/inspection
// helper: bypasses the network). It reports the stored version and value
// and whether key, version and checksum are mutually consistent.
func (s *Store) Entry(key uint64) (version uint64, value []byte, consistent bool, err error) {
	_, addr := s.entryLocation(key)
	buf := make([]byte, s.cfg.entrySize())
	if err := s.Machine().Space().ReadAt(addr, buf); err != nil {
		return 0, nil, false, err
	}
	version = getU64(buf[8:])
	value = buf[24:]
	consistent = getU64(buf[0:]) == key%s.cfg.KeySpace &&
		version%2 == 0 &&
		getU64(buf[16:]) == checksum(key%s.cfg.KeySpace, version, value)
	return version, value, consistent, nil
}

// Fingerprint hashes the entire table state — the direct-memory evidence
// the failure-atomicity scenario compares before and after an abort.
func (s *Store) Fingerprint() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, mr := range s.tables {
		for _, b := range mr.Region().Bytes() {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}

// Stats is a client's transaction tally.
type Stats struct {
	Commits     int64 // transactions fully committed and published
	Aborts      int64 // clean aborts (conflicts and failed participants)
	Retries     int64 // commit retries taken by Run after a conflict abort
	ReadRetries int64 // torn/locked optimistic reads re-issued
	Strands     int64 // abort-path unlocks that failed (participant dead)
}

// Client runs transactions against one store from one machine socket. One
// transaction is in flight per client at a time; the Txn value, scratch
// buffers and work requests are all reused, so the commit/abort hot paths
// never allocate.
type Client struct {
	id     int
	store  *Store
	cfg    Config
	socket topo.SocketID
	qps    []*verbs.QP // one per store socket, matched ports
	redo   *dlog.Engine

	scratch  *verbs.MR
	redoBufs [][]byte // MaxWrites reusable redo payloads
	txn      Txn

	readWR  verbs.SendWR
	casWR   verbs.SendWR
	applyWR verbs.SendWR
	readSGL [1]verbs.SGE
	casSGL  [1]verbs.SGE
	appSGL  [1]verbs.SGE

	backoff sim.Backoff
	stats   Stats

	reg        *telemetry.Registry
	label      string
	commitHist *telemetry.Histogram
	abortHist  *telemetry.Histogram
}

// Scratch layout: the CAS result word at 0, the read staging area at
// readOff, then MaxWrites staged entries.
const readOff = 64

// NewClient connects a client on the given machine socket to the store:
// one QP per store socket for entry READ/CAS/WRITE traffic plus a dlog
// engine for the redo appends.
func NewClient(id int, m *cluster.Machine, socket topo.SocketID, s *Store) (*Client, error) {
	ctx := verbs.NewContext(m)
	c := &Client{
		id:      id,
		store:   s,
		cfg:     s.cfg,
		socket:  socket,
		backoff: sim.DefaultBackoff(),
	}
	for so := range s.tables {
		qp, _, err := verbs.Connect(ctx, so%m.NIC().Ports(), s.ctx, so%s.Machine().NIC().Ports(), verbs.RC)
		if err != nil {
			return nil, err
		}
		c.qps = append(c.qps, qp)
	}
	eng, err := dlog.NewEngine(id, m, socket, s.redo)
	if err != nil {
		return nil, err
	}
	c.redo = eng
	es := s.cfg.entrySize()
	sr, err := m.Alloc(socket, readOff+(s.cfg.MaxWrites+1)*es, 0)
	if err != nil {
		return nil, err
	}
	c.scratch = ctx.MustRegisterMR(sr)
	c.redoBufs = make([][]byte, 0, s.cfg.MaxWrites)
	for i := 0; i < s.cfg.MaxWrites; i++ {
		c.redoBufs = append(c.redoBufs, make([]byte, s.cfg.redoSize()))
	}
	c.txn = Txn{
		c:      c,
		reads:  make([]readRec, 0, 2*s.cfg.MaxWrites),
		writes: make([]writeIntent, 0, s.cfg.MaxWrites),
	}
	if reg := m.Telemetry(); reg != nil {
		c.reg = reg
		c.label = m.Label()
		c.commitHist = reg.Hist(c.label, "txn", "commit")
		c.abortHist = reg.Hist(c.label, "txn", "abort")
	}
	return c, nil
}

// SetRetryPolicy applies a reliability configuration to every QP the
// client owns, including the redo engine's (fault scenarios tighten the
// budget so a dead participant surfaces within the test horizon).
func (c *Client) SetRetryPolicy(p verbs.RetryPolicy) {
	for _, qp := range c.qps {
		qp.SetRetryPolicy(p)
	}
	c.redo.SetRetryPolicy(p)
}

// Stats returns the client's transaction tally.
func (c *Client) Stats() Stats { return c.stats }

// NoteRetry tallies one caller-driven retry of a conflict-aborted
// transaction. Split-phase drivers that interleave reads and commits across
// scheduler steps restart aborted transactions themselves and count the
// retry here; Run counts its own retries automatically.
func (c *Client) NoteRetry() {
	c.stats.Retries++
	if c.reg != nil {
		c.reg.Count(c.label, "txn", "retry", 1)
	}
}

// readRec is one optimistic read: the version the commit CAS must find.
type readRec struct {
	key uint64
	ver uint64
}

// writeIntent is one staged write: the entry bytes already assembled in
// the scratch MR at off, to be published if the lock CAS on ver succeeds.
type writeIntent struct {
	key    uint64
	ver    uint64 // version observed at read time (even)
	off    int    // scratch offset of the staged entry
	locked bool
}

// Txn is one optimistic transaction. Obtain it from Begin; it is owned by
// its client and reused across transactions.
type Txn struct {
	c      *Client
	now    sim.Time
	begin  sim.Time
	reads  []readRec
	writes []writeIntent
}

// Begin resets the client's transaction at the given virtual time.
func (c *Client) Begin(now sim.Time) *Txn {
	t := &c.txn
	t.now = now
	t.begin = now
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	return t
}

// Now returns the transaction's current virtual time.
func (t *Txn) Now() sim.Time { return t.now }

// AdvanceTo moves the transaction's virtual clock forward — think time
// between the optimistic reads and the commit attempt. Moving backwards is
// ignored.
func (t *Txn) AdvanceTo(now sim.Time) {
	if now > t.now {
		t.now = now
	}
}

// ReadVersion reports the version the transaction observed for key, if the
// key was read in this transaction.
func (t *Txn) ReadVersion(key uint64) (uint64, bool) {
	k := key % t.c.cfg.KeySpace
	for i := range t.reads {
		if t.reads[i].key == k {
			return t.reads[i].ver, true
		}
	}
	return 0, false
}

// Get optimistically reads the entry under key into out: one one-sided
// READ, validated locally against the stored key, an even version and the
// checksum. A locked or torn entry is re-read with clamped back-off.
func (t *Txn) Get(key uint64, out []byte) error {
	c := t.c
	if len(out) != c.cfg.ValueSize {
		return fmt.Errorf("txn: out size %d, want %d", len(out), c.cfg.ValueSize)
	}
	// Read-your-own-writes: a staged intent wins over the remote entry.
	for i := range t.writes {
		if t.writes[i].key == key {
			copy(out, c.scratch.Region().Bytes()[t.writes[i].off+24:t.writes[i].off+24+c.cfg.ValueSize])
			return nil
		}
	}
	k := key % c.cfg.KeySpace
	mr, addr := c.store.entryLocation(k)
	qp := c.qps[int(k%uint64(len(c.store.tables)))]
	es := c.cfg.entrySize()
	buf := c.scratch.Region().Bytes()[readOff : readOff+es]
	delay := sim.Duration(0)
	for attempt := 0; attempt < readBudget; attempt++ {
		c.readSGL[0] = verbs.SGE{Addr: c.scratch.Addr() + readOff, Length: es, MR: c.scratch}
		c.readWR = verbs.SendWR{
			Opcode:     verbs.OpRead,
			SGL:        c.readSGL[:],
			RemoteAddr: addr,
			RemoteKey:  mr.RKey(),
		}
		comp, err := qp.PostSend(t.now, &c.readWR)
		if err == nil {
			err = comp.Err()
		}
		if err != nil {
			return fmt.Errorf("txn: optimistic read of key %d: %w", key, err)
		}
		t.now = comp.Done
		ver := getU64(buf[8:])
		if getU64(buf[0:]) == k && ver%2 == 0 && getU64(buf[16:]) == checksum(k, ver, buf[24:]) {
			copy(out, buf[24:])
			if len(t.reads) < cap(t.reads) {
				t.reads = append(t.reads, readRec{key: k, ver: ver})
			} else {
				return fmt.Errorf("txn: read set full (cap %d)", cap(t.reads))
			}
			return nil
		}
		// Locked by a committer or torn mid-publish: back off and re-read.
		c.stats.ReadRetries++
		if c.reg != nil {
			c.reg.Count(c.label, "txn", "read-retry", 1)
		}
		if delay == 0 {
			delay = c.backoff.Base
		} else {
			delay = c.backoff.Next(delay)
		}
		t.now += sim.Time(delay)
	}
	return fmt.Errorf("%w: key %d after %d attempts", ErrTornRead, key, readBudget)
}

// Put stages value under key. The key must have been read in this
// transaction (the observed version is the commit CAS compare). The entry
// bytes — key, new version, checksum, value — are assembled now, in the
// registered scratch region the publish WRITE gathers from.
func (t *Txn) Put(key uint64, value []byte) error {
	c := t.c
	if len(value) != c.cfg.ValueSize {
		return fmt.Errorf("txn: value size %d, want %d", len(value), c.cfg.ValueSize)
	}
	k := key % c.cfg.KeySpace
	es := c.cfg.entrySize()
	// Restage an intent for a key already written.
	for i := range t.writes {
		if t.writes[i].key == k {
			copy(c.scratch.Region().Bytes()[t.writes[i].off+24:], value)
			off := t.writes[i].off
			buf := c.scratch.Region().Bytes()[off : off+es]
			putU64(buf[16:], checksum(k, t.writes[i].ver+2, value))
			return nil
		}
	}
	var ver uint64
	found := false
	for i := range t.reads {
		if t.reads[i].key == k {
			ver, found = t.reads[i].ver, true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: key %d", ErrNotRead, key)
	}
	if len(t.writes) == cap(t.writes) {
		return fmt.Errorf("%w: cap %d", ErrWriteSetFull, cap(t.writes))
	}
	off := readOff + c.cfg.entrySize() + len(t.writes)*es
	buf := c.scratch.Region().Bytes()[off : off+es]
	putU64(buf[0:], k)
	putU64(buf[8:], ver+2)
	putU64(buf[16:], checksum(k, ver+2, value))
	copy(buf[24:], value)
	t.writes = append(t.writes, writeIntent{key: k, ver: ver, off: off})
	return nil
}

// Commit drives the lock / redo-append / publish walk, returning the
// completion time. A conflicting committer aborts the transaction cleanly
// (ErrConflict, the abort completion time); the caller retries, typically
// through Run.
func (t *Txn) Commit() (sim.Time, error) {
	c := t.c
	if len(t.writes) == 0 {
		c.recordCommit(t.now - t.begin)
		return t.now, nil
	}
	// Deterministic global lock order prevents deadlock between
	// transactions locking overlapping write sets. Insertion sort: the
	// write set is tiny and sort.Slice would allocate on the hot path.
	for i := 1; i < len(t.writes); i++ {
		for j := i; j > 0 && t.writes[j-1].key > t.writes[j].key; j-- {
			t.writes[j-1], t.writes[j] = t.writes[j], t.writes[j-1]
		}
	}

	// Phase 1: lock — CAS each version word v -> v|1.
	for i := range t.writes {
		w := &t.writes[i]
		old, err := t.cas(w.key, w.ver, w.ver|1)
		if err != nil {
			return t.abort(fmt.Errorf("txn: lock of key %d: %w", w.key, err))
		}
		if old != w.ver {
			// A conflicting transaction committed since the read (or holds
			// the lock): exactly-once atomics guarantee old is the true
			// pre-image, so this decision is stable under retransmission.
			// The sentinel is returned unwrapped — conflicts are the hot
			// abort path and must not allocate.
			return t.abort(ErrConflict)
		}
		w.locked = true
	}

	// Phase 2: the commit point — redo records through the remote
	// sequencer. The log order is the commit order.
	bufs := c.redoBufs[:len(t.writes)]
	for i := range t.writes {
		w := &t.writes[i]
		rb := bufs[i]
		putU64(rb[0:], uint64(c.id))
		putU64(rb[8:], w.key)
		putU64(rb[16:], w.ver+2)
		copy(rb[24:], c.scratch.Region().Bytes()[w.off+24:w.off+24+c.cfg.ValueSize])
	}
	_, done, err := c.redo.AppendPayload(t.now, bufs)
	if err != nil {
		return t.abort(fmt.Errorf("txn: redo append: %w", err))
	}
	t.now = done

	// Phase 3: publish — one WRITE per entry carries value, checksum and
	// the even version v+2, releasing the lock in the same atomic write.
	for i := range t.writes {
		w := &t.writes[i]
		mr, addr := c.store.entryLocation(w.key)
		qp := c.qps[int(w.key%uint64(len(c.store.tables)))]
		c.appSGL[0] = verbs.SGE{Addr: c.scratch.Addr() + mem.Addr(w.off), Length: c.cfg.entrySize(), MR: c.scratch}
		c.applyWR = verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        c.appSGL[:],
			RemoteAddr: addr,
			RemoteKey:  mr.RKey(),
		}
		comp, err := qp.PostSend(t.now, &c.applyWR)
		if err == nil {
			err = comp.Err()
		}
		if err != nil {
			// Past the commit point: the redo record is authoritative, so
			// this is not an abort — recovery replays the log.
			return t.now, fmt.Errorf("%w: key %d: %v", ErrApplyFailed, w.key, err)
		}
		t.now = comp.Done
	}
	c.recordCommit(t.now - t.begin)
	return t.now, nil
}

// cas issues one compare-and-swap on a key's version word over the QP
// matched to the entry's socket, returning the observed pre-image.
func (t *Txn) cas(key, compare, swap uint64) (uint64, error) {
	c := t.c
	mr, addr := c.store.entryLocation(key)
	qp := c.qps[int(key%uint64(len(c.store.tables)))]
	c.casSGL[0] = verbs.SGE{Addr: c.scratch.Addr(), Length: 8, MR: c.scratch}
	c.casWR = verbs.SendWR{
		Opcode:     verbs.OpCompSwap,
		SGL:        c.casSGL[:],
		RemoteAddr: addr + 8,
		RemoteKey:  mr.RKey(),
		CompareAdd: compare,
		Swap:       swap,
	}
	comp, err := qp.PostSend(t.now, &c.casWR)
	if err == nil {
		err = comp.Err()
	}
	if err != nil {
		return 0, err
	}
	t.now = comp.Done
	return comp.OldValue, nil
}

// abort rolls the lock phase back — every acquired lock is CASed from v|1
// back to v, in reverse order — counts the abort and returns cause.
func (t *Txn) abort(cause error) (sim.Time, error) {
	c := t.c
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		if !w.locked {
			continue
		}
		if _, err := t.cas(w.key, w.ver|1, w.ver); err != nil {
			// The participant is unreachable; its lock strands until the
			// QP reconnect path (DESIGN.md §14) or a recovery replay
			// releases it. The entry itself was never modified.
			c.stats.Strands++
			if c.reg != nil {
				c.reg.Count(c.label, "txn", "strand", 1)
			}
		}
		w.locked = false
	}
	c.stats.Aborts++
	if c.reg != nil {
		c.reg.Count(c.label, "txn", "abort", 1)
	}
	if c.abortHist != nil {
		c.abortHist.Observe(sim.Duration(t.now - t.begin))
	}
	return t.now, cause
}

// recordCommit tallies a committed transaction.
func (c *Client) recordCommit(latency sim.Time) {
	c.stats.Commits++
	if c.reg != nil {
		c.reg.Count(c.label, "txn", "commit", 1)
	}
	if c.commitHist != nil {
		c.commitHist.Observe(sim.Duration(latency))
	}
}

// Run executes body inside a transaction and commits, retrying conflict
// aborts with the repository's clamped exponential back-off until the
// transaction commits or fails for a non-conflict reason. It returns the
// completion time of the committed attempt.
func (c *Client) Run(now sim.Time, body func(*Txn) error) (sim.Time, error) {
	delay := sim.Duration(0)
	for {
		t := c.Begin(now)
		if err := body(t); err != nil {
			return t.now, err
		}
		done, err := t.Commit()
		if err == nil {
			return done, nil
		}
		if !errors.Is(err, ErrConflict) {
			return done, err
		}
		c.stats.Retries++
		if c.reg != nil {
			c.reg.Count(c.label, "txn", "retry", 1)
		}
		if delay == 0 {
			delay = c.backoff.Base
		} else {
			delay = c.backoff.Next(delay)
		}
		now = done + sim.Time(delay)
	}
}

// checksum is FNV-1a over (key, version, value) — the torn-read guard of
// the optimistic protocol.
func checksum(key, version uint64, value []byte) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(key >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(version >> (8 * i)))
		h *= prime64
	}
	for _, b := range value {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
