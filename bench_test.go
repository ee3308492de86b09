// Package rdmasem_test wires one testing.B benchmark to every table and
// figure of the paper, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation at reduced scale and reports each
// experiment's wall-clock cost. Use cmd/rdmabench for full-scale sweeps and
// readable output.
package rdmasem_test

import (
	"io"
	"testing"

	"rdmasem/internal/bench"
)

// benchScale keeps every experiment comfortably inside testing.B budgets;
// the shapes are scale-invariant (only sweep horizons shrink).
const benchScale = 0.05

func run(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report, err := bench.Run(id, benchScale, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		report.Render(io.Discard)
	}
}

func BenchmarkFig01PacketThrottling(b *testing.B) { run(b, "fig1") }
func BenchmarkFig03BatchStrategies(b *testing.B)  { run(b, "fig3") }
func BenchmarkFig04BatchSizes(b *testing.B)       { run(b, "fig4") }
func BenchmarkFig05ThreadScaling(b *testing.B)    { run(b, "fig5") }
func BenchmarkFig06RandSeq(b *testing.B)          { run(b, "fig6") }
func BenchmarkFig06cLocalDRAM(b *testing.B)       { run(b, "fig6c") }
func BenchmarkFig06dRegisteredSize(b *testing.B)  { run(b, "fig6d") }
func BenchmarkFig08Consolidation(b *testing.B)    { run(b, "fig8") }
func BenchmarkTable02LocalSockets(b *testing.B)   { run(b, "table2") }
func BenchmarkTable03RemoteSockets(b *testing.B)  { run(b, "table3") }
func BenchmarkFig10aSpinlock(b *testing.B)        { run(b, "fig10a") }
func BenchmarkFig10bSequencer(b *testing.B)       { run(b, "fig10b") }
func BenchmarkFig12Hashtable(b *testing.B)        { run(b, "fig12") }
func BenchmarkFig13Consolidation(b *testing.B)    { run(b, "fig13") }
func BenchmarkFig15Shuffle(b *testing.B)          { run(b, "fig15") }
func BenchmarkFig16JoinBatching(b *testing.B)     { run(b, "fig16") }
func BenchmarkFig17JoinScale(b *testing.B)        { run(b, "fig17") }
func BenchmarkFig18CPUCost(b *testing.B)          { run(b, "fig18") }
func BenchmarkFig19DistributedLog(b *testing.B)   { run(b, "fig19") }
func BenchmarkMRScale(b *testing.B)               { run(b, "mrscale") }
func BenchmarkQPScale(b *testing.B)               { run(b, "qpscale") }
func BenchmarkAblationTranslation(b *testing.B)   { run(b, "ablation-xlate") }
func BenchmarkAblationMMIO(b *testing.B)          { run(b, "ablation-mmio") }
func BenchmarkAblationQPI(b *testing.B)           { run(b, "ablation-qpi") }

func BenchmarkYCSBMixed(b *testing.B) { run(b, "ycsb") }

func BenchmarkBreakdown(b *testing.B) { run(b, "breakdown") }

func BenchmarkTable01Strategies(b *testing.B) { run(b, "table1") }
