// Command perfbench measures the host cost of the rdmasem simulator:
// wall-clock, CPU, allocation and memory of three workloads that drive the
// simulator only through its layers' public functions, timed from outside.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload join|smallop|txn-lossy --seed N --seconds S --trace 0|1
//
// A run repeats the workload's whole sweep of points for S seconds after
// one warm-up sweep and reports medians over the sweeps. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it records spans around
// every call into a layer plus a CPU profile, prints the per-layer metrics
// and stores the spans of the last traced sweep under --out.
//
// Virtual-time results (MOPS, simulated latencies, join times) are never
// metrics: they are hashed into a virtual digest that must be identical
// across sweeps and runs of one seed. Every check — join match counts, the
// smallop write shadow and counters, txn version accounting, WR/CQE
// conservation and port busy time — runs on every sweep. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type workloadDef struct {
	name string
	run  func(s *sweep, seed int64) error
}

var workloads = []workloadDef{
	{"join", runJoin},
	{"smallop", runSmallop},
	{"txn-lossy", runTxnLossy},
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: join, smallop or txn-lossy")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure, after one warm-up sweep")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run stores its spans in")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments %q\n", args)
		fs.Usage()
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = traced(w, *seed, budget, stderr)
		if rep != nil && rep.lastTrace != nil {
			path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.tsv", w.name, *seed))
			if werr := rep.lastTrace.write(path); werr != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", werr)
			}
		}
	} else {
		rep, err = untraced(w, *seed, budget, stderr)
	}
	if rep == nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
	}
	rep.printDigest(stdout, w.name, *seed)
	if perr := rep.print(stdout, err == nil, *trace == 1); perr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", perr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

// report holds the sweeps of one run.
type report struct {
	log       io.Writer // one line per sweep, for people watching
	warm      *sweep
	untraced  []*sweep // measured untraced sweeps
	traced    []*sweep // traced sweeps (trace mode only)
	paired    []*sweep // untraced sweeps run between traced ones (trace mode only)
	shares    map[string]float64
	samples   int64
	lastTrace *tracer
}

// sweepOnce runs one sweep from a collected heap, so each sweep starts from
// the same state, and checks its digest against the warm-up's.
func (r *report) sweepOnce(w *workloadDef, seed int64, tr *tracer) (*sweep, error) {
	runtime.GC()
	s := newSweep(tr)
	err := w.run(s, seed)
	s.finish()
	if err != nil {
		return s, err
	}
	fmt.Fprintf(r.log, "sweep traced=%t wall=%.4fs cpu=%.4fs setup=%.4fs alloc=%.1fMiB gc=%d rss=%.0fMiB\n",
		tr != nil, s.wall.Seconds(), s.cpu.Seconds(), s.setup.Seconds(), float64(s.allocBytes)/mib, s.gcCycles, peakRSSMB())
	if r.warm != nil && s.sum != r.warm.sum {
		return s, fmt.Errorf("virtual digest %s differs from the warm-up sweep's %s", s.sum, r.warm.sum)
	}
	return s, nil
}

// untraced runs one warm-up sweep, then untraced sweeps until the budget is
// spent (at least one).
func untraced(w *workloadDef, seed int64, budget time.Duration, log io.Writer) (*report, error) {
	r := &report{log: log}
	var err error
	if r.warm, err = r.sweepOnce(w, seed, nil); err != nil {
		return r, err
	}
	start := time.Now()
	for len(r.untraced) == 0 || time.Since(start) < budget {
		s, err := r.sweepOnce(w, seed, nil)
		if err != nil {
			return r, err
		}
		r.untraced = append(r.untraced, s)
	}
	return r, nil
}

// traced spends half the budget on untraced sweeps under a CPU profile and
// the rest alternating traced sweeps with untraced ones, whose difference is
// the tracing overhead.
func traced(w *workloadDef, seed int64, budget time.Duration, log io.Writer) (*report, error) {
	r := &report{log: log}
	var err error
	if r.warm, err = r.sweepOnce(w, seed, nil); err != nil {
		return r, err
	}
	start := time.Now()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	for len(r.untraced) == 0 || time.Since(start) < budget/2 {
		s, err := r.sweepOnce(w, seed, nil)
		if err != nil {
			pprof.StopCPUProfile()
			return r, err
		}
		r.untraced = append(r.untraced, s)
	}
	pprof.StopCPUProfile()
	if r.shares, r.samples, err = profileShares(prof.Bytes()); err != nil {
		return nil, err
	}
	for len(r.traced) == 0 || time.Since(start) < budget {
		tr := newTracer()
		s, err := r.sweepOnce(w, seed, tr)
		if err != nil {
			return r, err
		}
		s.layer = s.layerValues(tr)
		s.spans = nil // keep only the last traced sweep's spans
		r.traced = append(r.traced, s)
		r.lastTrace = tr
		if s, err = r.sweepOnce(w, seed, nil); err != nil {
			return r, err
		}
		r.paired = append(r.paired, s)
	}
	return r, nil
}

// printDigest prints the run's virtual digest beside the metrics, with the
// digest recorded for this seed, if any.
func (r *report) printDigest(w io.Writer, workload string, seed int64) {
	line := map[string]any{"workload": workload, "seed": seed, "virtual_digest": r.warm.sum}
	if want, ok := recordedDigest(workload, seed); ok {
		line["recorded_digest"] = want
		line["matches_recorded"] = want == r.warm.sum
	}
	b, _ := json.Marshal(line) // a map of strings, numbers and bools always marshals
	fmt.Fprintln(w, string(b))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the result line: the end-to-end metrics, or with trace the
// per-layer ones, every declared metric present.
func (r *report) print(w io.Writer, correct, trace bool) error {
	res := result{Correct: correct, Metrics: map[string]metricValue{}}
	all := append([]*sweep{r.warm}, r.untraced...)
	all = append(all, r.traced...)
	all = append(all, r.paired...)
	for _, s := range all {
		res.Attempted += s.virt.wrs
		res.Failed += s.virt.failedWRs
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that failed before executing any WR
		res.Correct = false
	}
	defs, values := endToEndMetrics, r.endToEnd()
	if trace {
		defs, values = perLayerMetrics, r.perLayer()
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && res.Correct { // a failed run may stop before measuring everything
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over sweeps.
func medianOf(sweeps []*sweep, f func(*sweep) float64) float64 {
	xs := make([]float64, len(sweeps))
	for i, s := range sweeps {
		xs[i] = f(s)
	}
	return median(xs)
}
