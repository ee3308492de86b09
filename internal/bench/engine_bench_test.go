package bench

import (
	"fmt"
	"testing"

	"rdmasem/internal/sim"
)

// BenchmarkEngineWorkers measures wall-clock time of the 8-pair disjoint
// traffic workload (the "engine" experiment's deepest point) at increasing
// sharded-kernel worker counts. The simulated result is byte-identical at
// every width — the goldens pin that — so the only thing this benchmark is
// allowed to show is host-time speedup. The host-cost benchmark in
// perfbench/ records the simulator's end-to-end and per-layer cost.
func BenchmarkEngineWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &run{opts: Options{EngineWorkers: workers}}
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				m, err := r.pairTrafficMOPS(8, 2*sim.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				sum += m
			}
			_ = sum
		})
	}
}
