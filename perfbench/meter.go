package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
)

// sweep is what one pass over every point of a workload cost the host, plus
// the virtual tallies that explain it. Host costs cover only the timed
// phases; set-up — cluster, QP and store construction, memory allocation
// and registration, input generation — is its own total.
type sweep struct {
	wall, cpu, setup   time.Duration
	allocBytes, allocs uint64
	gcCycles           uint64
	gcCPU, gcPause     float64 // seconds

	virt   tally
	digest hash.Hash // every virtual result of the sweep, in point order
	sum    string    // digest, hex, once the sweep is over

	spans *tracer            // nil on untraced sweeps
	layer map[string]float64 // per-layer values of a traced sweep
}

// tally holds virtual counts. A perf change must leave all of them identical.
type tally struct {
	wrs, doorbells      uint64 // ΣDoorbellWQEs, ΣDoorbells
	xlateHit, xlateMiss uint64
	qpHit, qpMiss       uint64
	segments            uint64 // Σ endpoint deliveries
	retransmits, drops  uint64
	failedWRs           uint64 // error completions and failed layer calls
	dispatches          uint64 // Op calls the kernel made (ΣPosted)
	commits, aborts     int64
	tuples              uint64 // join input tuples
	memAllocBytes       uint64 // bytes the benchmark itself asked mem for
}

func newSweep(tr *tracer) *sweep {
	return &sweep{digest: sha256.New(), spans: tr}
}

// timed brackets one timed phase with host wall clock, process CPU time,
// heap allocation counters and GC runtime metrics. It also labels the
// goroutine, and every goroutine it starts, so that CPU profile samples of
// timed phases can be told from set-up and checks.
type timed struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
	gc0  [len(gcMetricNames)]float64
}

var gcMetricNames = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

// timedLabel is the profile label that marks samples of timed phases.
const timedLabelKey, timedLabelValue = "phase", "timed"

var timedLabel = pprof.Labels(timedLabelKey, timedLabelValue)

// readGC reads the GC runtime metrics: cycles, CPU seconds and pause seconds.
func readGC() (v [len(gcMetricNames)]float64) {
	var samples [len(gcMetricNames)]metrics.Sample
	for i, n := range gcMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples[:])
	v[0] = float64(samples[0].Value.Uint64())
	v[1] = samples[1].Value.Float64()
	v[2] = histTotal(samples[2].Value)
	return v
}

func (s *sweep) timedStart() *timed {
	t := &timed{}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), timedLabel))
	t.gc0 = readGC()
	runtime.ReadMemStats(&t.ms0)
	t.cpu0 = processCPU()
	t.t0 = time.Now()
	return t
}

func (s *sweep) timedStop(t *timed) {
	s.wall += time.Since(t.t0)
	s.cpu += processCPU() - t.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes += ms.TotalAlloc - t.ms0.TotalAlloc
	s.allocs += ms.Mallocs - t.ms0.Mallocs
	gc := readGC()
	s.gcCycles += uint64(gc[0] - t.gc0[0])
	s.gcCPU += gc[1] - t.gc0[1]
	s.gcPause += gc[2] - t.gc0[2]
	pprof.SetGoroutineLabels(context.Background())
}

// histTotal approximates the sum of a runtime/metrics time histogram from
// its bucket midpoints (the runtime keeps no exact sum).
func histTotal(v metrics.Value) float64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (ru_maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / (1 << 20) // Linux reports KiB
}

// record folds a virtual result into the sweep's digest.
func (s *sweep) record(label string, v any) {
	fmt.Fprintf(s.digest, "%s %+v\n", label, v)
}

// recordRun folds a kernel result into the digest and counts its dispatches.
func (s *sweep) recordRun(label string, r sim.Result) {
	s.record(label, r)
	for _, c := range r.Clients {
		s.virt.dispatches += uint64(c.Posted)
	}
}

// finishCluster folds every machine's NIC counters into the digest and the
// tally, and checks from outside that no port's execution unit was busy for
// longer than the virtual horizon.
func (s *sweep) finishCluster(label string, cl *cluster.Cluster, horizon sim.Time) error {
	for _, m := range cl.Machines() {
		n := m.NIC()
		c := n.Counters()
		s.record(fmt.Sprintf("%s %s nic", label, m.Label()), c)
		s.virt.wrs += c.DoorbellWQEs
		s.virt.doorbells += c.Doorbells
		s.virt.xlateHit += c.TranslationHits
		s.virt.xlateMiss += c.TranslationMisses
		s.virt.qpHit += c.QPHits
		s.virt.qpMiss += c.QPMisses
		s.virt.retransmits += c.Rel.Retransmits
		s.virt.failedWRs += c.Rel.RetriesExhausted + c.Rel.FlushedWRs
		for p := 0; p < n.Ports(); p++ {
			if busy := n.Port(p).Exec().Busy(); busy > horizon {
				return fmt.Errorf("%s: %s port %d execution unit busy %v beyond the virtual horizon %v",
					label, m.Label(), p, busy, horizon)
			}
		}
	}
	for _, e := range cl.Fabric().Endpoints() {
		s.virt.segments += e.Deliveries()
	}
	s.virt.drops += cl.Fabric().FaultStats().Drops
	return nil
}

func (s *sweep) finish() { s.sum = hex.EncodeToString(s.digest.Sum(nil))[:16] }
