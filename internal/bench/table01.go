package bench

import (
	"fmt"

	"rdmasem/internal/core"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
)

// Table01StrategyComparison reproduces Table I, deriving the performance and
// scalability verdicts from measurements instead of asserting them:
//
//   - performance: absolute entry throughput at batch 16, 32 B;
//   - batch scalability: gain from batch 1 to 32;
//   - thread scalability: per-thread retention from 1 to 8 threads;
//   - size range: the payload at which throughput halves from its small-
//     payload value (SGL's "good in a small range");
//   - programmability is inherent to the mechanism and quoted from the
//     paper.
func (r *run) Table01StrategyComparison(scale float64) (*Report, error) {
	h := horizon(scale, 5*sim.Millisecond)
	tb := stats.NewTable("Table I: comparisons between three vector IO mechanisms (measured)")
	tb.Row("Type", "Programmability", "Perf (MOPS@32Bx16)", "Batch 1->32", "Per-thread 1->8", "Half-rate payload")

	progability := map[core.Strategy]string{
		core.Doorbell: "Good (rewrite a few lines)",
		core.SP:       "Poor (per-app gather code)",
		core.SGL:      "Moderate (one-sided gather only)",
	}
	strategies := []core.Strategy{core.Doorbell, core.SP, core.SGL}
	halfSizes := []int{64, 128, 256, 512, 1024, 2048}
	// Each strategy takes the five headline measurements plus the half-rate
	// payload ladder. Every measurement runs on its own cluster, so the
	// ladder can be measured eagerly (no early break) without changing any
	// value; the scan below reproduces the first-halving semantics.
	cells := []struct{ size, batch, threads int }{
		{32, 16, 1}, // perf
		{32, 1, 1},  // batch 1
		{32, 32, 1}, // batch 32
		{32, 4, 1},  // 1 thread
		{32, 4, 8},  // 8 threads
	}
	for _, size := range halfSizes {
		cells = append(cells, struct{ size, batch, threads int }{size, 16, 1})
	}
	ms, err := points(r, len(strategies)*len(cells), func(i int) (float64, error) {
		c := cells[i%len(cells)]
		return r.batchThroughput(strategies[i/len(cells)], c.size, c.batch, c.threads, h)
	})
	if err != nil {
		return nil, err
	}
	for si, s := range strategies {
		row := ms[si*len(cells) : (si+1)*len(cells)]
		perf, b1, b32, t1, t8 := row[0], row[1], row[2], row[3], row[4]
		// Find where throughput halves vs the 32 B value.
		half := "n/a"
		for i, size := range halfSizes {
			if row[5+i] < perf/2 {
				half = fmt.Sprintf("%dB", size)
				break
			}
		}
		tb.Row(s.String(),
			progability[s],
			fmt.Sprintf("%.1f", perf),
			fmt.Sprintf("%.1fx", b32/b1),
			fmt.Sprintf("%.0f%%", t8/8/t1*100),
			half)
	}
	return &Report{
		ID:     "table1",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"paper Table I: Doorbell good programmability / low perf / poor scalability; SP poor programmability / high perf / good scalability; SGL moderate / high / good in a small range",
		},
	}, nil
}
