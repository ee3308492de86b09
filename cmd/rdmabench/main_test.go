package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation covers the bad-flag paths: every invalid combination
// must exit 2 with a diagnostic on stderr before any experiment runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"scale zero", []string{"-exp", "fig1", "-scale", "0"}, "-scale must be in (0,1]"},
		{"scale negative", []string{"-exp", "fig1", "-scale", "-0.5"}, "-scale must be in (0,1]"},
		{"scale above one", []string{"-exp", "fig1", "-scale", "1.5"}, "-scale must be in (0,1]"},
		{"scale NaN", []string{"-exp", "fig1", "-scale", "NaN"}, "-scale must be in (0,1]"},
		{"unknown format", []string{"-exp", "fig1", "-format", "yaml"}, `unknown -format "yaml"`},
		{"bad faults plan", []string{"-exp", "fig1", "-faults", "bogus"}, "rdmabench"},
		{"zero engine workers", []string{"-exp", "fig1", "-engine-workers", "0"}, "-engine-workers must be >= 1"},
		{"negative engine workers", []string{"-exp", "fig1", "-engine-workers", "-2"}, "-engine-workers must be >= 1"},
		{"bad crash spec", []string{"-exp", "fig1", "-faults", "seed=1,crash=0@5"}, "rdmabench"},
		// The sweep-subset flags are retired: each experiment runs its fixed
		// sweep, and a command line that still names one must fail rather
		// than silently run the full default sweep.
		{"unknown conn mode", []string{"-exp", "qpsweep", "-conn-modes", "per-conn,bogus"}, "flag provided but not defined: -conn-modes"},
		{"negative qp pool", []string{"-exp", "qpsweep", "-qp-pool", "-8"}, "flag provided but not defined: -qp-pool"},
		{"malformed flap spec", []string{"-exp", "availability", "-fault-flap", "2000"}, "flag provided but not defined: -fault-flap"},
		{"flap down not a number", []string{"-exp", "availability", "-fault-flap", "x/25000"}, "flag provided but not defined: -fault-flap"},
		{"flap down >= period", []string{"-exp", "availability", "-fault-flap", "25000/25000"}, "flag provided but not defined: -fault-flap"},
		{"unknown recovery mode", []string{"-exp", "availability", "-recovery-modes", "none,bogus"}, "flag provided but not defined: -recovery-modes"},
		{"malformed adaptive spec", []string{"-exp", "adaptive", "-adaptive", "epoch"}, "flag provided but not defined: -adaptive"},
		{"adaptive value not a number", []string{"-exp", "adaptive", "-adaptive", "epoch=fast"}, "flag provided but not defined: -adaptive"},
		{"adaptive value not positive", []string{"-exp", "adaptive", "-adaptive", "dwell=0"}, "flag provided but not defined: -adaptive"},
		{"unknown adaptive key", []string{"-exp", "adaptive", "-adaptive", "cadence=5"}, "flag provided but not defined: -adaptive"},
		{"txn conflict not a number", []string{"-exp", "txn", "-txn-conflicts", "0,hot"}, "flag provided but not defined: -txn-conflicts"},
		{"txn conflict above 100", []string{"-exp", "txn", "-txn-conflicts", "0,150"}, "flag provided but not defined: -txn-conflicts"},
		{"txn conflicts not ascending", []string{"-exp", "txn", "-txn-conflicts", "50,50"}, "flag provided but not defined: -txn-conflicts"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.want)
			}
			if strings.Contains(stdout.String(), "==") {
				t.Fatal("experiment output produced despite invalid flags")
			}
		})
	}
}

func TestListSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"fig1", "breakdown", "ycsb"} {
		if !strings.Contains(stdout.String(), id) {
			t.Fatalf("-list output missing %q:\n%s", id, stdout.String())
		}
	}
	// No -exp and no -list is a usage error.
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("bare invocation exit code = %d, want 2", code)
	}
}

func TestUnknownExperimentExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestEngineWorkersOutputIdentity: the sharded kernel's CLI-level contract —
// the rendered report is byte-identical whether the engine runs serial or on
// 4 workers (host-timing progress lines stripped).
func TestEngineWorkersOutputIdentity(t *testing.T) {
	render := func(workers string) string {
		return runStripped(t, "-exp", "engine", "-scale", "0.02", "-engine-workers", workers)
	}
	serial, parallel := render("1"), render("4")
	if serial != parallel {
		t.Fatalf("-engine-workers changed rendered output:\nserial:\n%s\nworkers=4:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "== engine ==") {
		t.Fatalf("missing engine report:\n%s", serial)
	}
}

// runStripped runs the CLI in-process, fails the test on a nonzero exit, and
// returns stdout without the wall-clock "completed in" lines.
func runStripped(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit code = %d, stderr: %s", args, code, stderr.String())
	}
	var lines []string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.Contains(l, "completed in") { // wall-clock, legitimately varies
			continue
		}
		lines = append(lines, l)
	}
	return strings.Join(lines, "\n")
}

// TestRunsShareNoState runs a lossless, a lossy and again the lossless
// command in one process: the third output must equal the first, so no
// option of one run survives into the next.
func TestRunsShareNoState(t *testing.T) {
	args := []string{"-exp", "fig1", "-scale", "0.02"}
	first := runStripped(t, args...)
	runStripped(t, append(args, "-faults", "seed=1,drop=0.05")...)
	if third := runStripped(t, args...); third != first {
		t.Fatalf("a lossy run leaked into the next lossless one:\nfirst:\n%s\nthird:\n%s", first, third)
	}
}

// TestFaultSummaryLines pins the faults:/reliability: lines at two sweep
// widths, including the txn and availability sweeps, whose fault arms are
// their own scenario rather than the -faults plan.
func TestFaultSummaryLines(t *testing.T) {
	cases := []struct {
		args        []string
		faults, rel string
	}{
		{
			[]string{"-exp", "fig1"},
			"faults: segments=22723 drops=981 corrupts=0 delays=0 flap_drops=0 crash_drops=0",
			"reliability: segments=11616 retransmits=1004 timeouts=968 naks=12 rnr_naks=0 retries_exhausted=0 silent_drops=0 reconnects=0",
		},
		{
			[]string{"-exp", "txn"},
			"faults: segments=3714 drops=11 corrupts=0 delays=0 flap_drops=0 crash_drops=0",
			"reliability: segments=1860 retransmits=11 timeouts=11 naks=0 rnr_naks=0 retries_exhausted=0 silent_drops=0 reconnects=0",
		},
		{
			[]string{"-exp", "availability"},
			"faults: segments=8345 drops=0 corrupts=0 delays=0 flap_drops=567 crash_drops=82",
			"reliability: segments=4450 retransmits=428 timeouts=649 naks=0 rnr_naks=0 retries_exhausted=221 silent_drops=0 reconnects=196",
		},
	}
	for _, tc := range cases {
		for _, parallel := range []string{"1", "4"} {
			args := append([]string{"-scale", "0.02", "-faults", "seed=1,drop=0.05", "-parallel", parallel}, tc.args...)
			out := runStripped(t, args...)
			for _, want := range []string{tc.faults, tc.rel} {
				if !strings.Contains(out, "\n"+want+"\n") {
					t.Errorf("%v: missing %q in:\n%s", args, want, out)
				}
			}
		}
	}
}

// TestLossySweepCompletes runs every experiment over a lossy fabric: a
// valid fault plan must never abort the sweep.
func TestLossySweepCompletes(t *testing.T) {
	out := runStripped(t, "-exp", "all", "-scale", "0.02", "-faults", "seed=1,drop=0.05")
	if n := strings.Count(out, "\nfaults: "); n != 32 {
		t.Fatalf("%d fault summaries, want one per experiment (32):\n%s", n, out)
	}
}

// TestMetricsAndTimelineSmoke drives the full -metrics and -timeline paths
// in-process: the summary must follow the report, and the trace file must be
// valid Chrome trace JSON.
func TestMetricsAndTimelineSmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "breakdown", "-scale", "0.02", "-metrics", "-timeline", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== breakdown ==", "stage histograms", "verbs/WRITE", "counters", "timeline:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if doc.DisplayTimeUnit != "ns" || complete == 0 {
		t.Fatalf("trace malformed: unit=%q complete=%d", doc.DisplayTimeUnit, complete)
	}
}
