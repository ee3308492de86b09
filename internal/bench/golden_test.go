package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment outputs")

// engineWorkersFlag reruns the sweep with a sharded-kernel worker count > 1.
// The goldens are rendered at the serial default, so passing e.g.
// -engine-workers 4 (as the race-parity CI job does) asserts the kernel's
// central claim: worker count changes wall-clock only, never output bytes.
var engineWorkersFlag = flag.Int("engine-workers", 0, "sharded-kernel worker count for the golden sweep (0 = serial default)")

// goldenScale keeps the full multi-experiment sweep affordable in the test
// suite while still exercising every driver end to end.
const goldenScale = 0.02

// TestGoldenOutputs locks every registered experiment's rendered output to a
// committed golden file. The simulation is deterministic, so any diff is a
// real behaviour change: either a bug, or an intentional model change that
// must be re-blessed with
//
//	go test ./internal/bench -run TestGoldenOutputs -update
//
// The goldens are rendered on a lossless fabric; together with the lossy
// acceptance tests this pins the reliability layer's zero-cost-when-disabled
// contract across the whole evaluation surface.
func TestGoldenOutputs(t *testing.T) {
	opts := Options{EngineWorkers: *engineWorkersFlag}
	for _, id := range List() {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, goldenScale, opts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if buf.Len() == 0 {
				t.Fatal("experiment rendered nothing")
			}
			path := filepath.Join("testdata", "golden", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output diverged from %s\n%s", path, diffHint(want, buf.Bytes()))
			}
		})
	}
}

// diffHint locates the first differing line so a golden failure is readable
// without an external diff tool.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count changed: golden %d, got %d", len(wl), len(gl))
}
