package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdmasem/internal/apps/join"
	"rdmasem/internal/cluster"
	"rdmasem/internal/sim"
	"rdmasem/internal/workload"
)

// The check tests run each workload's checks on a short, real run: they
// must pass on the true expectation and fail on a corrupted one.

func TestJoinCheckCatchesOffByOne(t *testing.T) {
	inner := workload.Relation(1<<11, 1<<11, 3)
	outer := workload.Relation(1<<11, 1<<11, 4)
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := join.DefaultConfig()
	cfg.Executors, cfg.Batch = 4, 16
	res, err := join.Run(cl, cfg, inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	want := joinMatches(inner, outer)
	if err := checkJoin("join", res, want); err != nil {
		t.Fatalf("true count rejected: %v", err)
	}
	for _, bad := range []int64{want - 1, want + 1} {
		if checkJoin("join", res, bad) == nil {
			t.Errorf("count %d accepted, join found %d", bad, res.Matches)
		}
	}
}

// runShortSmallop runs smallop's 8-WR, 64 MiB point for 200 µs of
// virtual time.
func runShortSmallop(t *testing.T) (*sweep, *smallopEnv, sim.Result) {
	t.Helper()
	s := newSweep(nil)
	env, err := buildSmallop(s, 1, 3, smallopPoints[3])
	if err != nil {
		t.Fatal(err)
	}
	return s, env, env.eng.Run(200 * sim.Microsecond)
}

func TestSmallopChecksCatchCorruption(t *testing.T) {
	s, env, res := runShortSmallop(t)
	if err := env.check(s, "smallop", res, 200*sim.Microsecond); err != nil {
		t.Fatalf("true run rejected: %v", err)
	}

	flipped := -1
	for i, ok := range env.shadow.written {
		if ok {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("no shadowed slot was written")
	}
	env.shadow.data[flipped*smallopSize+5] ^= 0x40
	if checkShadow(env.cl.Machine(1).Space(), env.shadow) == nil {
		t.Error("flipped byte in the write shadow accepted")
	}
	env.shadow.data[flipped*smallopSize+5] ^= 0x40

	var adds uint64
	for _, c := range env.clients {
		adds += c.adds
	}
	if checkCounters(env.cl.Machine(1).Space(), env.remote.Addr(), adds+1) == nil {
		t.Error("FETCH_ADD count off by one accepted")
	}

	env.clients[0].polled--
	if env.check(newSweep(nil), "smallop", res, 200*sim.Microsecond) == nil {
		t.Error("a missing CQE accepted")
	}
}

func TestTxnCheckCatchesMissingCommit(t *testing.T) {
	s := newSweep(nil)
	env, err := buildTxn(s, 1, 1, 90)
	if err != nil {
		t.Fatal(err)
	}
	const h = 500 * sim.Microsecond
	res := env.eng.Run(h)
	if err := env.check(s, "txn", res, h); err != nil {
		t.Fatalf("true run rejected: %v", err)
	}
	commits := s.virt.commits
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	if checkVersions(env.store, commits-1) == nil {
		t.Error("a missing commit accepted")
	}
}

func TestPortBusyBeyondHorizonRejected(t *testing.T) {
	s, env, _ := runShortSmallop(t)
	if err := s.finishCluster("smallop", env.cl, 1); err == nil {
		t.Error("execution units busy beyond a 1 ns horizon accepted")
	}
}

// benchmarkFile is the part of BENCHMARK.json the printer must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPrinterEmitsEveryDeclaredMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, trace := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		code := cli([]string{"--workload", "smallop", "--seed", "2", "--seconds", "0.01", "--trace", trace, "--out", t.TempDir()}, &out, &errs)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%t attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		declared := b.EndToEnd
		if trace == "1" {
			declared = b.PerLayer
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("trace %s: printed %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			got, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("trace %s: %s not printed", trace, d.Name)
			} else if got.Unit != d.Unit {
				t.Errorf("trace %s: %s printed in %q, declared in %q", trace, d.Name, got.Unit, d.Unit)
			}
		}
	}
}

func TestManifestCoversBenchmark(t *testing.T) {
	b := readBenchmarkFile(t)
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.DefaultSeed != defaultSeed || m.HeldOutSeed == defaultSeed {
		t.Errorf("seeds: default %d (code %d), held out %d", m.DefaultSeed, defaultSeed, m.HeldOutSeed)
	}
	for _, d := range b.PerLayer {
		if n, ok := m.Layers[d.Name]; !ok || n.Layer == "" || len(n.Moves) == 0 || len(n.On) == 0 {
			t.Errorf("layers.json does not say what %s should move", d.Name)
		}
	}
	for _, w := range b.Workloads {
		for _, seed := range []int64{m.DefaultSeed, m.HeldOutSeed} {
			if _, ok := m.Digests[w.Name][strconv.FormatInt(seed, 10)]; !ok {
				t.Errorf("no virtual digest recorded for %s seed %d", w.Name, seed)
			}
		}
	}
}

func TestProfileSharesFindTimedFrames(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	s := newSweep(nil)
	tm := s.timedStart()
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	s.timedStop(tm)
	pprof.StopCPUProfile()
	shares, samples, err := profileShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || shares["bench"] < 0.5 {
		t.Errorf("spin loop in a timed phase: %d samples, bench share %.2f (x=%d)", samples, shares["bench"], x)
	}
}
