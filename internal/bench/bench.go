// Package bench contains one driver per table and figure of the paper's
// evaluation. Each driver rebuilds the experiment on a fresh simulated
// cluster and returns the series/rows the paper plots, so
//
//	rdmabench -exp fig3
//
// regenerates Figure 3 as an aligned text table.
//
// Every driver accepts a Scale in (0, 1]: 1 reproduces the full sweep,
// smaller values shrink horizons and input sizes proportionally (used by the
// test suite and the testing.B wrappers to stay fast).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/rnic"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// Report is the output of one experiment driver.
type Report struct {
	ID      string
	Figures []*stats.Figure
	Tables  []*stats.Table
	Notes   []string

	// Faults and Reliability sum the fault-model and reliability-layer
	// tallies of every cluster the run built (zero unless the run had a
	// fault plan or metrics registry attached).
	Faults      fabric.FaultStats
	Reliability rnic.RelCounters
	// Metrics is the run's drained telemetry snapshot (empty unless the run
	// had a metrics registry attached).
	Metrics telemetry.Snapshot
}

// Render prints all figures and tables of the report as aligned text.
func (r *Report) Render(w io.Writer) { r.RenderFormat(w, "text") }

// RenderFormat prints the report in the given format: "text" (aligned
// columns), "csv", or "chart" (ASCII scatter for a quick shape check).
func (r *Report) RenderFormat(w io.Writer, format string) {
	fmt.Fprintf(w, "== %s ==\n", r.ID)
	for _, f := range r.Figures {
		switch format {
		case "csv":
			f.RenderCSV(w)
		case "chart":
			f.RenderChart(w, 12)
		default:
			f.Render(w)
		}
		fmt.Fprintln(w)
	}
	for _, t := range r.Tables {
		if format == "csv" {
			t.RenderCSV(w)
		} else {
			t.Render(w)
		}
		fmt.Fprintln(w)
	}
	if format != "csv" {
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
}

// Options configures one Run. The zero value is the serial, lossless,
// telemetry-free run the goldens pin; every field only selects what the
// command-line flags of the same name select.
type Options struct {
	Parallel      int                 // sweep-point workers (< 1 = GOMAXPROCS)
	EngineWorkers int                 // sharded-kernel workers per engine (< 1 = 1)
	Faults        *fabric.FaultPlan   // lossy-fabric plan for every cluster (nil = lossless)
	Metrics       *telemetry.Registry // metrics sink for every cluster, folded into Report.Metrics
	Timeline      *telemetry.Timeline // span recorder for every cluster
}

// run is one experiment execution: its options plus the clusters it built,
// recorded only when something needs their counters afterwards.
type run struct {
	opts     Options
	record   bool
	mu       sync.Mutex
	clusters []*cluster.Cluster
}

// newCluster builds one experiment cluster with the run's telemetry sinks
// attached. Drivers pass the run's fault plan, except the chaos and txn
// sweeps, whose fault arms are their own scenario.
func (r *run) newCluster(cfg cluster.Config, faults *fabric.FaultPlan) (*cluster.Cluster, error) {
	cfg.Faults = faults
	cfg.Telemetry = r.opts.Metrics
	cfg.Timeline = r.opts.Timeline
	cl, err := cluster.New(cfg)
	if err == nil && r.record {
		r.mu.Lock()
		r.clusters = append(r.clusters, cl)
		r.mu.Unlock()
	}
	return cl, err
}

// experiments maps every experiment id to its driver.
var experiments = map[string]func(*run, float64) (*Report, error){
	"fig1":           (*run).Fig01PacketThrottling,
	"fig3":           (*run).Fig03BatchStrategies,
	"fig4":           (*run).Fig04BatchSizes,
	"fig5":           (*run).Fig05ThreadScaling,
	"fig6":           (*run).Fig06RandSeq,
	"fig6c":          (*run).Fig06cLocalDRAM,
	"fig6d":          (*run).Fig06dRegisteredSize,
	"fig8":           (*run).Fig08Consolidation,
	"fig10a":         (*run).Fig10aSpinlock,
	"fig10b":         (*run).Fig10bSequencer,
	"fig12":          (*run).Fig12HashtableBreakdown,
	"fig13":          (*run).Fig13HashtableConsolidation,
	"fig15":          (*run).Fig15Shuffle,
	"fig16":          (*run).Fig16JoinBatching,
	"fig17":          (*run).Fig17JoinScale,
	"fig18":          (*run).Fig18CPUCost,
	"fig19":          (*run).Fig19DistributedLog,
	"table1":         (*run).Table01StrategyComparison,
	"table2":         (*run).Table02LocalSockets,
	"table3":         (*run).Table03RemoteSockets,
	"breakdown":      (*run).Breakdown,
	"mrscale":        (*run).MRScale,
	"qpscale":        (*run).QPScale,
	"ablation-xlate": (*run).AblationTranslationCache,
	"ablation-mmio":  (*run).AblationMMIOCost,
	"ablation-qpi":   (*run).AblationQPILatency,
	"ycsb":           (*run).YCSBMixed,
	"engine":         (*run).EngineDisjointPairs,
	"qpsweep":        (*run).QPSweep,
	"availability":   (*run).Availability,
	"adaptive":       (*run).AdaptiveRuntime,
	"txn":            (*run).TxnConflicts,
}

// Run executes the named experiment under opts. With a fault plan or a
// metrics registry attached, the report also carries the fault and
// reliability tallies summed over every cluster the run built; with a
// registry, their NIC and fabric counters are folded into it and the drained
// snapshot lands in Report.Metrics.
func Run(id string, scale float64, opts Options) (*Report, error) {
	d, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (see List)", id)
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("bench: scale must be in (0,1], got %v", scale)
	}
	if opts.Metrics != nil {
		opts.Metrics.SetExperiment(id)
	}
	opts.EngineWorkers = max(opts.EngineWorkers, 1)
	if opts.Parallel < 1 {
		opts.Parallel = runtime.GOMAXPROCS(0)
	}
	r := &run{opts: opts, record: opts.Metrics != nil || opts.Faults != nil}
	rep, err := d(r, scale)
	if err != nil {
		return nil, err
	}
	for _, cl := range r.clusters {
		rep.Faults.Add(cl.Fabric().FaultStats())
		for _, m := range cl.Machines() {
			rep.Reliability.Add(m.NIC().Counters().Rel)
		}
		cl.FoldTelemetry()
	}
	if opts.Metrics != nil {
		rep.Metrics = opts.Metrics.Take()
	}
	return rep, nil
}

// List returns the experiment ids in order.
func List() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// horizon scales the default measurement window.
func horizon(scale float64, full sim.Duration) sim.Duration {
	h := sim.Duration(float64(full) * scale)
	if h < 100*sim.Microsecond {
		h = 100 * sim.Microsecond
	}
	return h
}

// pairEnv is the one-to-one microbenchmark environment (Figures 1, 3-6, 8):
// two machines, an RC QP between the NIC-socket ports, and large MRs.
type pairEnv struct {
	cl       *cluster.Cluster
	ctxA     *verbs.Context
	ctxB     *verbs.Context
	qpA      *verbs.QP
	mrA, mrB *verbs.MR
	staging  *verbs.MR
}

// newPair builds the environment with the given registered-region size on
// the remote side.
func (r *run) newPair(remoteBytes int) (*pairEnv, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := r.newCluster(cfg, r.opts.Faults)
	if err != nil {
		return nil, err
	}
	ctxA := verbs.NewContext(cl.Machine(0))
	ctxB := verbs.NewContext(cl.Machine(1))
	qpA, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		return nil, err
	}
	// Spans beyond 8 MB use sparse backing: the full virtual extent drives
	// the translation cache, the bytes alias a 1 MB physical buffer.
	alloc := func(m int, size int) (*mem.Region, error) {
		if size > 8<<20 {
			return cl.Machine(m).Space().AllocSparse(1, size, 1<<20)
		}
		return cl.Machine(m).Alloc(1, size, 0)
	}
	localBytes := 1 << 22
	if remoteBytes > localBytes {
		localBytes = remoteBytes
	}
	ra, err := alloc(0, localBytes)
	if err != nil {
		return nil, err
	}
	rb, err := alloc(1, remoteBytes)
	if err != nil {
		return nil, err
	}
	st, err := cl.Machine(0).Alloc(1, 1<<20, 0)
	if err != nil {
		return nil, err
	}
	return &pairEnv{
		cl:      cl,
		ctxA:    ctxA,
		ctxB:    ctxB,
		qpA:     qpA,
		mrA:     ctxA.MustRegisterMR(ra),
		mrB:     ctxB.MustRegisterMR(rb),
		staging: ctxA.MustRegisterMR(st),
	}, nil
}

// measure runs a one-client closed loop over the op and returns the result.
// One client is one shard, so this stays on the plain single-shard path.
func measure(op sim.Op, window int, postCost sim.Duration, h sim.Duration) sim.Result {
	client := &sim.Client{Op: op, PostCost: postCost, Window: window}
	return sim.RunClosedLoop([]*sim.Client{client}, h)
}

// engine builds the pair environment's sharded engine; clients added to it
// run with the machine-0/machine-1 footprint of the one-to-one
// microbenchmarks.
func (r *run) pairEngine(env *pairEnv) (*cluster.Engine, *cluster.Machine, *cluster.Machine) {
	return env.cl.NewEngine(r.opts.EngineWorkers), env.cl.Machine(0), env.cl.Machine(1)
}
