package join

import (
	"encoding/binary"
	"runtime"
	"testing"

	"rdmasem/internal/mem"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/workload"
)

func newCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// nestedLoop is the reference join (match count on keys).
func nestedLoop(inner, outer []workload.Tuple) int64 {
	counts := map[uint64]int64{}
	for _, t := range inner {
		counts[t.Key]++
	}
	var matches int64
	for _, t := range outer {
		matches += counts[t.Key]
	}
	return matches
}

func relations(n int, seed int64) (inner, outer []workload.Tuple) {
	// A small key space forces plenty of matches.
	return workload.Relation(n, uint64(n/4+16), seed),
		workload.Relation(n, uint64(n/4+16), seed+1)
}

func TestValidation(t *testing.T) {
	cl := newCluster(t)
	inner, outer := relations(64, 1)
	if _, err := Run(cl, Config{Executors: 0}, inner, outer); err == nil {
		t.Error("zero executors must fail")
	}
	cfg := DefaultConfig()
	cfg.Batch = 0
	cfg.Executors = 4
	if _, err := Run(cl, cfg, inner, outer); err == nil {
		t.Error("zero batch must fail")
	}
	cfg = DefaultConfig()
	cfg.Executors = 64
	if _, err := Run(cl, cfg, inner, outer); err == nil {
		t.Error("too many executors must fail")
	}
}

func TestSingleMachineMatchesReference(t *testing.T) {
	cl := newCluster(t)
	inner, outer := relations(512, 3)
	cfg := DefaultConfig()
	cfg.Executors = 1
	res, err := Run(cl, cfg, inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	if want := nestedLoop(inner, outer); res.Matches != want {
		t.Fatalf("matches=%d, want %d", res.Matches, want)
	}
	if res.Elapsed <= 0 {
		t.Fatal("single-machine join must take time")
	}
}

func TestDistributedMatchesReference(t *testing.T) {
	for _, execs := range []int{2, 4, 8} {
		for _, numa := range []bool{true, false} {
			cl := newCluster(t)
			inner, outer := relations(1024, 7)
			cfg := DefaultConfig()
			cfg.Executors = execs
			cfg.NUMA = numa
			res, err := Run(cl, cfg, inner, outer)
			if err != nil {
				t.Fatalf("execs=%d numa=%v: %v", execs, numa, err)
			}
			if want := nestedLoop(inner, outer); res.Matches != want {
				t.Fatalf("execs=%d numa=%v: matches=%d, want %d", execs, numa, res.Matches, want)
			}
			if res.Partition <= 0 || res.Elapsed <= res.Partition {
				t.Fatalf("phases look wrong: %+v", res)
			}
		}
	}
}

func TestMoreExecutorsAreFaster(t *testing.T) {
	inner, outer := relations(8192, 11)
	run := func(execs int) sim.Duration {
		cl := newCluster(t)
		cfg := DefaultConfig()
		cfg.Executors = execs
		cfg.Batch = 16
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	t4, t16 := run(4), run(16)
	if t16 >= t4 {
		t.Fatalf("16 executors (%v) should beat 4 (%v)", t16, t4)
	}
}

func TestBatchingSpeedsUpPartition(t *testing.T) {
	inner, outer := relations(8192, 13)
	run := func(batch int) sim.Duration {
		cl := newCluster(t)
		cfg := DefaultConfig()
		cfg.Executors = 4
		cfg.Batch = batch
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		return res.Partition
	}
	b1, b16 := run(1), run(16)
	if b16 >= b1 {
		t.Fatalf("batch 16 partition (%v) should beat batch 1 (%v)", b16, b1)
	}
}

func TestNUMASpeedsUpJoin(t *testing.T) {
	inner, outer := relations(8192, 17)
	run := func(numa bool) sim.Duration {
		cl := newCluster(t)
		cfg := DefaultConfig()
		cfg.Executors = 4
		cfg.Batch = 4
		cfg.NUMA = numa
		res, err := Run(cl, cfg, inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("NUMA-aware (%v) should beat oblivious (%v)", with, without)
	}
}

func TestDistributedBeatsSingleMachine(t *testing.T) {
	inner, outer := relations(16384, 19)
	cl := newCluster(t)
	cfgS := DefaultConfig()
	cfgS.Executors = 1
	single, err := Run(cl, cfgS, inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := newCluster(t)
	cfgD := DefaultConfig()
	cfgD.Executors = 16
	cfgD.Batch = 16
	dist, err := Run(cl2, cfgD, inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(single.Elapsed) / float64(dist.Elapsed)
	if speedup < 3 {
		t.Fatalf("speedup %.2fx, want > 3x (paper: 5.3x)", speedup)
	}
	t.Logf("single=%v dist=%v speedup=%.2fx", single.Elapsed, dist.Elapsed, speedup)
}

// oneKey returns n tuples that all carry key.
func oneKey(n int, key uint64) []workload.Tuple {
	out := make([]workload.Tuple, n)
	for i := range out {
		out[i] = workload.Tuple{Key: key, Payload: uint64(i)}
	}
	return out
}

// Skewed and degenerate inputs: every tuple routed to one executor, an
// empty side, and the widest fan-out with no batching. Each must join to
// the reference count without overflowing a receive ring.
func TestEdgeAndSkewInputsMatchReference(t *testing.T) {
	inner, outer := relations(2048, 23)
	cases := []struct {
		name         string
		inner, outer []workload.Tuple
		execs, batch int
	}{
		{"one key single", oneKey(512, 42), oneKey(512, 42), 1, 1},
		{"one key", oneKey(1024, 42), oneKey(1024, 42), 8, 4},
		{"one key batch 16", oneKey(1024, 7), oneKey(1024, 7), 16, 16},
		{"empty inner single", nil, outer, 1, 1},
		{"empty inner", nil, outer, 8, 4},
		{"empty outer single", inner, nil, 1, 1},
		{"empty outer", inner, nil, 8, 4},
		{"both empty", nil, nil, 4, 4},
		{"16 executors batch 1", inner, outer, 16, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Executors, cfg.Batch = c.execs, c.batch
			res, err := Run(newCluster(t), cfg, c.inner, c.outer)
			if err != nil {
				t.Fatal(err)
			}
			if want := nestedLoop(c.inner, c.outer); res.Matches != want {
				t.Fatalf("matches=%d, want %d", res.Matches, want)
			}
		})
	}
}

// ringSizeFor must give every (src,dst) pair room for its whole flow, in
// whole pages, and no more than one page beyond the largest flow.
func TestRingSizeForCoversEveryFlow(t *testing.T) {
	inner, outer := relations(4096, 29)
	cases := []struct {
		name         string
		inner, outer []workload.Tuple
		execs        int
	}{
		{"uniform 2", inner, outer, 2},
		{"uniform 4", inner, outer, 4},
		{"uniform 16", inner, outer, 16},
		{"inner only", inner, nil, 8},
		{"one key", oneKey(3000, 5), oneKey(1000, 5), 8},
		{"empty", nil, nil, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ring := ringSizeFor(c.inner, c.outer, c.execs)
			if ring <= 0 || ring%mem.PageSize != 0 {
				t.Fatalf("ring %d bytes is not a positive whole number of pages", ring)
			}
			most := 0
			for src := 0; src < c.execs; src++ {
				flow := make([]int, c.execs)
				for _, rel := range [][]workload.Tuple{c.inner, c.outer} {
					for _, tu := range share(rel, src, c.execs) {
						flow[ownerOf(tu.Key, c.execs)]++
					}
				}
				for dst, f := range flow {
					if f*tupleBytes > ring {
						t.Fatalf("flow %d->%d of %d tuples overflows a %d-byte ring", src, dst, f, ring)
					}
					most = max(most, f)
				}
			}
			if ring >= most*tupleBytes+mem.PageSize && ring > mem.PageSize {
				t.Fatalf("ring %d bytes is over a page beyond the largest flow (%d tuples)", ring, most)
			}
		})
	}
}

// joinMallocs returns the heap allocations one join.Run of n-tuple
// relations makes.
func joinMallocs(t *testing.T, n int) uint64 {
	inner, outer := workload.Relation(n, uint64(n), 1), workload.Relation(n, uint64(n), 2)
	cl := newCluster(t)
	cfg := DefaultConfig()
	cfg.Executors, cfg.Batch = 8, 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cl, cfg, inner, outer); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// joinMallocGrowth bounds how many more allocations a join of 2^15-tuple
// relations may make than one of 2^12: the build tables, receive rings and
// send CQs are sized once per run, so the count must not scale with tuples.
const joinMallocGrowth = 1000

func TestJoinAllocationsDoNotScaleWithTuples(t *testing.T) {
	small, large := joinMallocs(t, 1<<12), joinMallocs(t, 1<<15)
	t.Logf("mallocs: 2^12 tuples %d, 2^15 tuples %d", small, large)
	if large > small+joinMallocGrowth {
		t.Fatalf("2^15 tuples made %d allocations, over %d more than 2^12 tuples (%d)", large, joinMallocGrowth, small)
	}
}

// The build table's probe counts must equal a Go map's, whatever the keys:
// key 0, duplicates, keys sharing a home slot, and runs that wrap the end of
// the table. Keys are little-endian uint64s; a trailing partial word is
// dropped.
func FuzzBuildTable(f *testing.F) {
	le := func(keys ...uint64) []byte {
		b := make([]byte, 0, 8*len(keys))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
		return b
	}
	// Keys whose home slot is the last one of an 8-slot table collide there
	// and wrap to the start on insert.
	var last []uint64
	for k := uint64(0); len(last) < 4; k++ {
		if k*fibonacci>>61 == 7 {
			last = append(last, k)
		}
	}
	f.Add(le(0), le(0, 1))
	f.Add(le(0, 0, 0), le(0))
	f.Add(le(last...), le(append(last, 0, 1, 2)...))
	f.Add(le(last[0], last[0], last[1], 0), le(last[2], last[1]))
	f.Add([]byte{}, le(0, 1<<63))
	f.Add(le(1<<63, 1<<64-1, 1<<32), le(1<<64-1, 1<<32, 5))
	f.Fuzz(func(t *testing.T, build, probe []byte) {
		keys := func(b []byte) []uint64 {
			out := make([]uint64, len(b)/8)
			for i := range out {
				out[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
			return out
		}
		table, ref := newBuildTable(len(build)/8), map[uint64]int64{}
		for _, k := range keys(build) {
			table.insert(k)
			ref[k]++
		}
		for _, k := range append(keys(build), keys(probe)...) {
			if got, want := table.probe(k), ref[k]; got != want {
				t.Fatalf("probe(%#x) = %d, want %d", k, got, want)
			}
		}
	})
}
