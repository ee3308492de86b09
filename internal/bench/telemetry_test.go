package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rdmasem/internal/telemetry"
)

// TestTelemetryPassiveAcrossAllExperiments pins the telemetry layer's
// zero-cost contract over the whole evaluation surface: with a registry AND
// a timeline attached to every cluster, all experiments must render
// byte-identically to the committed goldens. Any divergence means an
// observer leaked into the timing model.
func TestTelemetryPassiveAcrossAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	tl := telemetry.NewTimeline(0)
	opts := Options{Metrics: telemetry.NewRegistry(), Timeline: tl}
	var collected bool
	for _, id := range List() {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, goldenScale, opts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			collected = collected || !rep.Metrics.Empty()
			var buf bytes.Buffer
			rep.Render(&buf)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("telemetry attachment changed the output of %s\n%s", id, diffHint(want, buf.Bytes()))
			}
		})
	}

	// The sweep must actually have fed the sinks, or the parity above proved
	// nothing.
	if !collected {
		t.Fatal("registry collected nothing across the whole sweep")
	}
	if tl.Len() == 0 {
		t.Fatal("timeline recorded no spans across the whole sweep")
	}
}

// TestRunFoldsMetricsAndDrains covers the bench-level lifecycle: clusters
// built during a run are recorded, folded exactly once into the report's
// snapshot, and the registry is empty after Run returns.
func TestRunFoldsMetricsAndDrains(t *testing.T) {
	reg := telemetry.NewRegistry()
	rep, err := Run("breakdown", goldenScale, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	if snap.Empty() {
		t.Fatal("snapshot empty after an instrumented run")
	}
	var sawCounter bool
	for _, c := range snap.Counters {
		if c.Experiment != "breakdown" {
			t.Fatalf("counter %+v not labeled with the experiment", c)
		}
		if c.Component == "nic" && c.Stage == "doorbells" && c.Value > 0 {
			sawCounter = true
		}
	}
	if !sawCounter {
		t.Fatal("NIC doorbell counters were not folded into the snapshot")
	}
	if !reg.Take().Empty() {
		t.Fatal("registry must be drained after Run")
	}
}
