package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
	"time"
)

// metricDef is one metric the benchmark declares, by name and unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the simulator sees, measured untraced.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"wrs_per_s", "1/s"},
	{"alloc_mb", "MiB"},
	{"allocs", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics come from the traced run. A metric of a layer the
// workload does not reach reads 0.
var perLayerMetrics = []metricDef{
	{"cluster.new_ms", "ms"},
	{"workload.gen_ms", "ms"},
	{"mem.alloc_ms", "ms"},
	{"mem.alloc_mb", "MiB"},
	{"mem.cpu_share", "ratio"},
	{"verbs.connect_ms", "ms"},
	{"verbs.register_ms", "ms"},
	{"verbs.post_calls", "count"},
	{"verbs.post_s", "s"},
	{"verbs.post_ns.p50", "ns"},
	{"verbs.post_ns.p99", "ns"},
	{"verbs.poll_calls", "count"},
	{"verbs.poll_s", "s"},
	{"verbs.poll_ns.p50", "ns"},
	{"verbs.poll_ns.p99", "ns"},
	{"verbs.failed_wrs", "count"},
	{"verbs.cpu_share", "ratio"},
	{"rnic.wqes", "count"},
	{"rnic.doorbells", "count"},
	{"rnic.xlate_hit_ratio", "ratio"},
	{"rnic.qp_hit_ratio", "ratio"},
	{"rnic.cpu_share", "ratio"},
	{"fabric.segments", "count"},
	{"fabric.retransmits", "count"},
	{"fabric.drops", "count"},
	{"fabric.cpu_share", "ratio"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.dispatches", "count"},
	{"sim.dispatch_ns", "ns"},
	{"sim.cpu_share", "ratio"},
	{"bench.closure_s", "s"},
	{"bench.cpu_share", "ratio"},
	{"join.run_s", "s"},
	{"join.tuples_per_s", "1/s"},
	{"join.cpu_share", "ratio"},
	{"chash.cpu_share", "ratio"},
	{"txn.setup_ms", "ms"},
	{"txn.read_ns.p50", "ns"},
	{"txn.read_ns.p99", "ns"},
	{"txn.commit_ns.p50", "ns"},
	{"txn.commit_ns.p99", "ns"},
	{"txn.commit_ratio", "ratio"},
	{"txn.cpu_share", "ratio"},
	{"telemetry.fold_ms", "ms"},
	{"telemetry.cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"profile.samples", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_share", "ratio"},
}

const mib = 1 << 20

// endToEnd computes the end-to-end metrics: medians over the measured
// untraced sweeps, and the process's peak RSS.
func (r *report) endToEnd() map[string]float64 {
	ss := r.untraced
	return map[string]float64{
		"wall_s":  medianOf(ss, func(s *sweep) float64 { return s.wall.Seconds() }),
		"cpu_s":   medianOf(ss, func(s *sweep) float64 { return s.cpu.Seconds() }),
		"setup_s": medianOf(ss, func(s *sweep) float64 { return s.setup.Seconds() }),
		"wrs_per_s": medianOf(ss, func(s *sweep) float64 {
			return ratio(float64(s.virt.wrs), s.wall.Seconds())
		}),
		"alloc_mb":    medianOf(ss, func(s *sweep) float64 { return float64(s.allocBytes) / mib }),
		"allocs":      medianOf(ss, func(s *sweep) float64 { return float64(s.allocs) }),
		"peak_rss_mb": peakRSSMB(),
	}
}

// perLayer computes the per-layer metrics of a traced run: span-derived
// values are medians over the traced sweeps, runtime GC figures medians
// over the untraced sweeps paired with them, and CPU shares come from the
// profile of the untraced half of the run.
func (r *report) perLayer() map[string]float64 {
	m := map[string]float64{}
	perSweep := make([]map[string]float64, len(r.traced))
	for i, s := range r.traced {
		perSweep[i] = s.layer
	}
	if len(perSweep) > 0 {
		for k := range perSweep[0] {
			xs := make([]float64, len(perSweep))
			for i, v := range perSweep {
				xs[i] = v[k]
			}
			m[k] = median(xs)
		}
	}
	m["runtime.gc_cycles"] = medianOf(r.paired, func(s *sweep) float64 { return float64(s.gcCycles) })
	m["runtime.gc_cpu_s"] = medianOf(r.paired, func(s *sweep) float64 { return s.gcCPU })
	m["runtime.gc_pause_ms"] = medianOf(r.paired, func(s *sweep) float64 { return s.gcPause * 1e3 })
	for layer, share := range r.shares {
		m[layer+".cpu_share"] = share
	}
	m["profile.samples"] = float64(r.samples)
	tracedWall := medianOf(r.traced, func(s *sweep) float64 { return s.wall.Seconds() })
	plainWall := medianOf(r.paired, func(s *sweep) float64 { return s.wall.Seconds() })
	m["trace.overhead_s"] = tracedWall - plainWall
	m["trace.overhead_share"] = ratio(tracedWall-plainWall, plainWall)
	return m
}

// layerValues computes one traced sweep's span- and tally-derived values.
func (s *sweep) layerValues(tr *tracer) map[string]float64 {
	st := tr.summarize()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	v := s.virt
	runSelf := st[spanSimRun].self.Seconds()
	return map[string]float64{
		"cluster.new_ms":       ms(st[spanClusterNew].total),
		"workload.gen_ms":      ms(st[spanWorkloadGen].total),
		"mem.alloc_ms":         ms(st[spanMemAlloc].total),
		"mem.alloc_mb":         float64(v.memAllocBytes) / mib,
		"verbs.connect_ms":     ms(st[spanVerbsConnect].total),
		"verbs.register_ms":    ms(st[spanVerbsRegister].total),
		"verbs.post_calls":     float64(st[spanVerbsPost].count),
		"verbs.post_s":         st[spanVerbsPost].total.Seconds(),
		"verbs.post_ns.p50":    percentile(st[spanVerbsPost].durs, 0.50),
		"verbs.post_ns.p99":    percentile(st[spanVerbsPost].durs, 0.99),
		"verbs.poll_calls":     float64(st[spanVerbsPoll].count),
		"verbs.poll_s":         st[spanVerbsPoll].total.Seconds(),
		"verbs.poll_ns.p50":    percentile(st[spanVerbsPoll].durs, 0.50),
		"verbs.poll_ns.p99":    percentile(st[spanVerbsPoll].durs, 0.99),
		"verbs.failed_wrs":     float64(v.failedWRs),
		"rnic.wqes":            float64(v.wrs),
		"rnic.doorbells":       float64(v.doorbells),
		"rnic.xlate_hit_ratio": ratio(float64(v.xlateHit), float64(v.xlateHit+v.xlateMiss)),
		"rnic.qp_hit_ratio":    ratio(float64(v.qpHit), float64(v.qpHit+v.qpMiss)),
		"fabric.segments":      float64(v.segments),
		"fabric.retransmits":   float64(v.retransmits),
		"fabric.drops":         float64(v.drops),
		"sim.run_s":            st[spanSimRun].total.Seconds(),
		"sim.self_s":           runSelf,
		"sim.dispatches":       float64(v.dispatches),
		"sim.dispatch_ns":      ratio(runSelf*1e9, float64(v.dispatches)),
		"bench.closure_s":      st[spanClosure].self.Seconds(),
		"join.run_s":           st[spanJoinRun].total.Seconds(),
		"join.tuples_per_s":    ratio(float64(v.tuples), st[spanJoinRun].total.Seconds()),
		"txn.setup_ms":         ms(st[spanTxnSetup].total),
		"txn.read_ns.p50":      percentile(st[spanTxnRead].durs, 0.50),
		"txn.read_ns.p99":      percentile(st[spanTxnRead].durs, 0.99),
		"txn.commit_ns.p50":    percentile(st[spanTxnCommit].durs, 0.50),
		"txn.commit_ns.p99":    percentile(st[spanTxnCommit].durs, 0.99),
		"txn.commit_ratio":     ratio(float64(v.commits), float64(v.commits+v.aborts)),
		"telemetry.fold_ms":    ms(st[spanTelemetryFold].total),
		"trace.spans":          float64(len(tr.spans)),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

//go:embed layers.json
var manifestJSON []byte

// manifest is layers.json: the benchmark's seeds, the virtual digests
// recorded for them, and what each per-layer metric should move.
type manifest struct {
	DefaultSeed int64                        `json:"default_seed"`
	HeldOutSeed int64                        `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"virtual_digests"`
	Layers      map[string]layerNote         `json:"per_layer"`
}

// layerNote says which layer a per-layer metric belongs to, and which
// end-to-end metrics it should move on which workloads.
type layerNote struct {
	Layer string   `json:"layer"`
	Moves []string `json:"moves"`
	On    []string `json:"on"`
}

func loadManifest() (manifest, error) {
	var m manifest
	err := json.Unmarshal(manifestJSON, &m)
	return m, err
}

// recordedDigest is the digest layers.json records for a workload and seed.
func recordedDigest(workload string, seed int64) (string, bool) {
	m, err := loadManifest()
	if err != nil {
		return "", false
	}
	d, ok := m.Digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// defaultSeed is the seed the benchmark is tuned on; layers.json names it
// and a held-out seed that is not.
const defaultSeed = 1
