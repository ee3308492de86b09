package dlog

import (
	"bytes"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/topo"
	"rdmasem/internal/workload"
)

func newCluster(t *testing.T, machines int) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = machines
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mustHead(t *testing.T, l *Log) uint64 {
	t.Helper()
	h, err := l.Head()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidation(t *testing.T) {
	cl := newCluster(t, 1)
	if _, err := NewLog(cl.Machine(0), Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
}

func TestAppendRoundTrip(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.Batch = 4
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(1, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	first, done, err := e.AppendBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first reservation should be 0, got %d", first)
	}
	if done < 3000 {
		t.Fatalf("append (FAA + write) completed suspiciously fast: %v", done)
	}
	for i := uint64(0); i < 4; i++ {
		rec, err := l.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.CheckValue(rec, i) {
			t.Fatalf("record %d corrupt", i)
		}
	}
	if h := mustHead(t, l); h != 4 {
		t.Fatalf("head=%d, want 4", h)
	}
}

func TestConcurrentEnginesNeverOverlap(t *testing.T) {
	const engines = 6
	cl := newCluster(t, engines+1)
	cfg := DefaultConfig()
	cfg.Batch = 8
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*sim.Client
	reserved := map[uint64]int{} // first seq -> engine
	for i := 0; i < engines; i++ {
		e, err := NewEngine(i, cl.Machine(i+1), topo.SocketID(i%2), l)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		clients = append(clients, &sim.Client{
			PostCost: 150,
			Window:   1,
			MaxOps:   20,
			Op: func(post sim.Time) sim.Time {
				first, done, err := e.AppendBatch(post)
				if err != nil {
					t.Fatal(err)
				}
				if prev, dup := reserved[first]; dup {
					t.Fatalf("engines %d and %d both reserved %d", prev, i, first)
				}
				reserved[first] = i
				return done
			},
		})
	}
	sim.RunClosedLoop(clients, sim.Second)
	if len(reserved) != engines*20 {
		t.Fatalf("reservations=%d, want %d", len(reserved), engines*20)
	}
	// Reservations must tile [0, head) in steps of Batch.
	if h := mustHead(t, l); h != uint64(engines*20*8) {
		t.Fatalf("head=%d, want %d", h, engines*20*8)
	}
	for first := range reserved {
		if first%8 != 0 {
			t.Fatalf("reservation %d not batch-aligned", first)
		}
	}
	// Every record in every reserved extent is intact.
	for first := range reserved {
		for i := uint64(0); i < 8; i++ {
			rec, err := l.Record(first + i)
			if err != nil {
				t.Fatal(err)
			}
			if !workload.CheckValue(rec, first+i) {
				t.Fatalf("record %d corrupt", first+i)
			}
		}
	}
}

func TestBatchingImprovesThroughput(t *testing.T) {
	run := func(batch int, numa bool) float64 {
		const engines = 7
		cl := newCluster(t, 8)
		cfg := DefaultConfig()
		cfg.Batch = batch
		cfg.NUMA = numa
		l, err := NewLog(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var clients []*sim.Client
		for i := 0; i < engines; i++ {
			e, err := NewEngine(i, cl.Machine(i%7+1), topo.SocketID(i%2), l)
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, &sim.Client{
				PostCost: 150,
				Window:   2,
				Op: func(post sim.Time) sim.Time {
					_, done, err := e.AppendBatch(post)
					if err != nil {
						t.Fatal(err)
					}
					return done
				},
			})
		}
		res := sim.RunClosedLoop(clients, 10*sim.Millisecond)
		return float64(res.Completed) * float64(batch) / 10e6 * 1000 // records MOPS
	}
	b1 := run(1, true)
	b32 := run(32, true)
	if b32 < 4*b1 {
		t.Errorf("batch 32 (%.2f MOPS) should be >4x batch 1 (%.2f MOPS); paper: 9.1x", b32, b1)
	}
	t.Logf("batch1=%.2f batch32=%.2f MOPS (%.1fx)", b1, b32, b32/b1)
}

func TestNUMAStagingReducesLatencyUnderCrossTraffic(t *testing.T) {
	run := func(numa bool) sim.Time {
		cl := newCluster(t, 2)
		cfg := DefaultConfig()
		cfg.Batch = 16
		cfg.NUMA = numa
		l, err := NewLog(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(0, cl.Machine(1), 1, l)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up, then measure a steady append.
		if _, _, err := e.AppendBatch(0); err != nil {
			t.Fatal(err)
		}
		base := sim.Time(sim.Millisecond)
		_, done, err := e.AppendBatch(base)
		if err != nil {
			t.Fatal(err)
		}
		return done - base
	}
	// The staged copy trades CPU for avoiding QPI on the gather; both paths
	// must work and produce close latencies, with the direct gather paying
	// the interconnect.
	with, without := run(true), run(false)
	if with <= 0 || without <= 0 {
		t.Fatal("appends must take time")
	}
	t.Logf("numa-staged=%v direct-gather=%v", with, without)
}

func TestLogFull(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.LogBytes = 4096
	cfg.RecordSize = 1024
	cfg.Batch = 4
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AppendBatch(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AppendBatch(0); err == nil {
		t.Fatal("second batch must overflow the 4-record log")
	}
	if _, err := l.Record(99); err == nil {
		t.Fatal("out-of-range record read must fail")
	}
}

// Regression: the data-table wrap must be by whole record index. The old
// byte-level modulus ((seqNo*RecordSize) % (size-RecordSize)) is only
// record-aligned when RecordSize divides the modulus — true for the default
// 64 B, false for 96 B — so a wrapped record sheared across two neighbouring
// slot homes.
func TestSlotWraparoundRecordAligned(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.RecordSize = 96
	cfg.LogBytes = 4 << 20
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	table := e.tables[0]
	slots := table.Region().Size() / cfg.RecordSize // 1 MiB / 96 = 10922
	for _, seq := range []uint64{0, 1, uint64(slots) - 1, uint64(slots), uint64(slots) + 1, 2 * uint64(slots), 123456789} {
		slot := e.slotFor(seq, table)
		if slot%cfg.RecordSize != 0 {
			t.Fatalf("seq %d: slot %d not record-aligned", seq, slot)
		}
		if slot+cfg.RecordSize > table.Region().Size() {
			t.Fatalf("seq %d: slot %d runs past the table", seq, slot)
		}
	}
	// Two sequence numbers map either to the same whole slot or to disjoint
	// extents — never to a partial overlap (the old formula mapped seq
	// 10922 to byte 32, shearing the homes of seqs 0 and 1).
	a, b := e.slotFor(uint64(slots), table), e.slotFor(0, table)
	if a != b {
		t.Fatalf("wrap must reuse slot homes exactly: slotFor(%d)=%d, slotFor(0)=%d", slots, a, b)
	}
	if d := e.slotFor(uint64(slots)+1, table) - e.slotFor(1, table); d != 0 {
		t.Fatalf("second wrapped slot drifted by %d bytes", d)
	}
}

// End-to-end wraparound at RecordSize 96: append past the table capacity and
// verify both the log extent and the invariant that every slot home holds a
// complete record for the last sequence number that owned it.
func TestAppendWraparoundNonDefaultRecordSize(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.RecordSize = 96
	cfg.Batch = 1
	cfg.LogBytes = 4 << 20
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	table := e.tables[0] // Batch 1 always materializes in table 0
	slots := uint64(table.Region().Size() / cfg.RecordSize)
	total := slots + 8 // a few records past the wrap
	now := sim.Time(0)
	for i := uint64(0); i < total; i++ {
		_, d, err := e.AppendBatch(now)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if h := mustHead(t, l); h != total {
		t.Fatalf("head=%d, want %d", h, total)
	}
	// The gathered log records are intact across the wrap.
	for seq := total - 8; seq < total; seq++ {
		rec, err := l.Record(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.CheckValue(rec, seq) {
			t.Fatalf("log record %d corrupt across the wrap", seq)
		}
	}
	// The wrapped records reclaimed the first slot homes whole: each home
	// holds exactly its latest owner's record, with no shear into the
	// neighbouring slot.
	for i := uint64(0); i < 8; i++ {
		seq := slots + i // latest owner of slot home i
		home := table.Region().Bytes()[e.slotFor(seq, table) : e.slotFor(seq, table)+cfg.RecordSize]
		if !workload.CheckValue(home, seq) {
			t.Fatalf("slot home %d sheared after the wrap (owner seq %d)", i, seq)
		}
	}
	// And the un-wrapped neighbour is untouched.
	seq := uint64(8)
	home := table.Region().Bytes()[e.slotFor(seq, table) : e.slotFor(seq, table)+cfg.RecordSize]
	if !workload.CheckValue(home, seq) {
		t.Fatalf("slot home 8 corrupted by the wrap")
	}
}

// AppendPayload is the redo-append primitive of the txn layer: caller bytes,
// zero-padded to a record, land in a reserved extent in one write.
func TestAppendPayload(t *testing.T) {
	cl := newCluster(t, 2)
	cfg := DefaultConfig()
	cfg.RecordSize = 96
	l, err := NewLog(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(0, cl.Machine(1), 1, l)
	if err != nil {
		t.Fatal(err)
	}
	p0 := make([]byte, 96)
	p1 := make([]byte, 40) // short: must be zero-padded
	workload.FillValue(p0, 900)
	workload.FillValue(p1, 901)
	first, done, err := e.AppendPayload(0, [][]byte{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || done <= 0 {
		t.Fatalf("first=%d done=%v", first, done)
	}
	r0, err := l.Record(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r0, p0) {
		t.Fatal("payload 0 not durable")
	}
	r1, err := l.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1[:40], p1) {
		t.Fatal("payload 1 not durable")
	}
	for _, b := range r1[40:] {
		if b != 0 {
			t.Fatal("short payload not zero-padded")
		}
	}
	if h := mustHead(t, l); h != 2 {
		t.Fatalf("head=%d, want 2", h)
	}
	// Appends interleave with AppendBatch through the same sequencer.
	bf, _, err := e.AppendBatch(done)
	if err != nil {
		t.Fatal(err)
	}
	if bf != 2 {
		t.Fatalf("batch reservation=%d, want 2", bf)
	}
	// Validation: oversized payloads and oversized batches are rejected;
	// the empty batch is a no-op.
	if _, _, err := e.AppendPayload(0, [][]byte{make([]byte, 97)}); err == nil {
		t.Fatal("oversized payload must fail")
	}
	huge := make([][]byte, e.staging.Region().Size()/cfg.RecordSize+1)
	for i := range huge {
		huge[i] = p1
	}
	if _, _, err := e.AppendPayload(0, huge); err == nil {
		t.Fatal("batch beyond the staging buffer must fail")
	}
	if _, d, err := e.AppendPayload(7, nil); err != nil || d != 7 {
		t.Fatalf("empty append: d=%v err=%v", d, err)
	}
}
