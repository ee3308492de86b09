package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names the layer call a span wraps.
type spanKind uint8

const (
	spanPoint         spanKind = iota // one sweep point, set-up included
	spanClusterNew                    // cluster.New
	spanWorkloadGen                   // input generation
	spanMemAlloc                      // Machine.Alloc
	spanVerbsConnect                  // verbs.Connect
	spanVerbsRegister                 // Context.RegisterMR
	spanVerbsPost                     // QP.PostSendList
	spanVerbsPoll                     // CQ.PollOne
	spanSimRun                        // Engine.Run
	spanClosure                       // the benchmark's own Op closure
	spanJoinRun                       // join.Run
	spanTxnSetup                      // txn.NewStore and txn.NewClient
	spanTxnRead                       // Client.Begin plus the Get/Put calls
	spanTxnCommit                     // Txn.Commit
	spanTelemetryFold                 // Cluster.FoldTelemetry
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"point", "cluster.new", "workload.gen", "mem.alloc", "verbs.connect",
	"verbs.register", "verbs.post", "verbs.poll", "sim.run", "bench.closure",
	"join.run", "txn.setup", "txn.read", "txn.commit", "telemetry.fold",
}

// span is one timed call into a layer's public function. Times are
// nanoseconds since the tracer's epoch; parent is an index into the same
// tracer's spans, or -1 for a root.
type span struct {
	start, end int64
	parent     int32
	point      int32
	kind       spanKind
}

// tracer records spans around the benchmark's calls into the simulator. It
// keeps them in memory; write stores them once the run is over. A nil
// tracer records nothing, which is how untraced sweeps run.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
	point int32 // current sweep point, -1 before the first
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), open: -1, point: -1}
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: t.open, point: t.point, kind: k})
	t.open = id
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	t.open = s.parent
}

// startPoint opens the root span of sweep point p.
func (t *tracer) startPoint(p int) int32 {
	if t == nil {
		return -1
	}
	t.point = int32(p)
	return t.begin(spanPoint)
}

// spanStats aggregates the spans of one kind.
type spanStats struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus the time their children cover
	durs  []int64       // every duration, ns, for percentiles
}

// summarize aggregates every span by kind. A span's self time is its
// duration minus the parts of it its direct children cover; children never
// overlap, because the benchmark calls one layer at a time.
func (t *tracer) summarize() [numSpanKinds]spanStats {
	var out [numSpanKinds]spanStats
	childTime := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		st := &out[s.kind]
		d := s.end - s.start
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - childTime[i])
		st.durs = append(st.durs, d)
	}
	return out
}

// percentile returns the q-quantile (0..1) of durs in ns, nearest rank, or 0
// for no samples. It sorts durs in place.
func percentile(durs []int64, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	i := int(q*float64(len(durs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(durs) {
		i = len(durs) - 1
	}
	return float64(durs[i])
}

// write stores the spans as tab-separated rows: index, parent, point, name,
// start and end in ns since the tracer's epoch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tpoint\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.point, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
