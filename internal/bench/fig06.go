package bench

import (
	"math/rand"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/topo"
	"rdmasem/internal/verbs"
)

// addrPattern generates the next (local, remote) offset pair for the given
// source/destination patterns over the given region spans.
type addrPattern struct {
	rng        *rand.Rand
	srcSeq     bool
	dstSeq     bool
	size       int
	localSpan  int
	remoteSpan int
	srcOff     int
	dstOff     int
}

func (p *addrPattern) next() (lo, ro int) {
	if p.srcSeq {
		lo = p.srcOff
		p.srcOff += p.size
		if p.srcOff+p.size > p.localSpan {
			p.srcOff = 0
		}
	} else {
		lo = p.rng.Intn(p.localSpan-p.size) &^ 7
	}
	if p.dstSeq {
		ro = p.dstOff
		p.dstOff += p.size
		if p.dstOff+p.size > p.remoteSpan {
			p.dstOff = 0
		}
	} else {
		ro = p.rng.Intn(p.remoteSpan-p.size) &^ 7
	}
	return lo, ro
}

// randSeqThroughput measures one pattern combination. The remote region is
// regionBytes large (Figure 6a/b fix it at 2 GB; Figure 6d sweeps it).
func (r *run) randSeqThroughput(op verbs.Opcode, srcSeq, dstSeq bool, size, regionBytes int, h sim.Duration) (float64, error) {
	env, err := r.newPair(regionBytes)
	if err != nil {
		return 0, err
	}
	// The paper's benchmark registers the same footprint on both sides; the
	// local pattern walks the same span as the remote one.
	localSpan := env.mrA.Region().Size()
	if regionBytes < localSpan {
		localSpan = regionBytes
	}
	pat := &addrPattern{
		rng:        rand.New(rand.NewSource(7)),
		srcSeq:     srcSeq,
		dstSeq:     dstSeq,
		size:       size,
		localSpan:  localSpan,
		remoteSpan: regionBytes,
	}
	wr := &verbs.SendWR{
		Opcode:    op,
		SGL:       []verbs.SGE{{Length: size, MR: env.mrA}},
		RemoteKey: env.mrB.RKey(),
	}
	res := measure(func(t sim.Time) sim.Time {
		lo, ro := pat.next()
		wr.SGL[0].Addr = env.mrA.Addr() + mem.Addr(lo)
		wr.RemoteAddr = env.mrB.Addr() + mem.Addr(ro)
		c, err := env.qpA.PostSend(t, wr)
		if err != nil {
			panic(err)
		}
		return c.Done
	}, 16, 150, h)
	return res.MOPS(), nil
}

// fig6Sizes are the payload sizes of Figure 6 (1 B to 8 KB).
var fig6Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Fig06RandSeq reproduces Figures 6(a) and 6(b): remote READ/WRITE
// throughput for the four sequential/random source/destination pattern
// combinations over a large registered region (sparse-backed, so the full
// virtual page range drives the translation cache without the host memory).
func (r *run) Fig06RandSeq(scale float64) (*Report, error) {
	// The paper registers 2 GB. The translation cache covers 4 MB, so any
	// region far beyond that thrashes identically; 256 MB keeps the host
	// allocation modest while staying 64x beyond the cache coverage.
	const region = 256 << 20
	h := horizon(scale, 5*sim.Millisecond)
	type cell struct {
		op    verbs.Opcode
		label string
		s, d  bool
		size  int
	}
	var cells []cell
	for _, op := range []verbs.Opcode{verbs.OpRead, verbs.OpWrite} {
		name := "read"
		if op == verbs.OpWrite {
			name = "write"
		}
		for _, combo := range []struct {
			suffix string
			s, d   bool
		}{
			{"-rand-rand", false, false},
			{"-rand-seq", false, true},
			{"-seq-rand", true, false},
			{"-seq-seq", true, true},
		} {
			for _, size := range fig6Sizes {
				cells = append(cells, cell{op, name + combo.suffix, combo.s, combo.d, size})
			}
		}
	}
	ms, err := points(r, len(cells), func(i int) (float64, error) {
		c := cells[i]
		return r.randSeqThroughput(c.op, c.s, c.d, c.size, region, h)
	})
	if err != nil {
		return nil, err
	}
	figs := []*stats.Figure{
		stats.NewFigure("Fig 6a: RDMA READ rand/seq throughput", "size(B)", "throughput (MOPS)"),
		stats.NewFigure("Fig 6b: RDMA WRITE rand/seq throughput", "size(B)", "throughput (MOPS)"),
	}
	for i, c := range cells {
		fig := figs[0]
		if c.op == verbs.OpWrite {
			fig = figs[1]
		}
		fig.Line(c.label).Add(float64(c.size), ms[i])
	}
	return &Report{
		ID:      "fig6",
		Figures: figs,
		Notes: []string{
			"paper: seq-seq write more than 2x the other write patterns; read less asymmetric; all drop past 512B from bandwidth",
		},
	}, nil
}

// Fig06cLocalDRAM reproduces Figure 6(c): local DRAM rand/seq read/write.
func (r *run) Fig06cLocalDRAM(scale float64) (*Report, error) {
	_ = scale
	fig := stats.NewFigure("Fig 6c: local DRAM rand/seq throughput", "size(B)", "throughput (MOPS)")
	tp := topo.DefaultParams()
	for _, combo := range []struct {
		label string
		op    topo.AccessOp
		pat   topo.Pattern
	}{
		{"write-rand", topo.Write, topo.Rand},
		{"write-seq", topo.Write, topo.Seq},
		{"read-rand", topo.Read, topo.Rand},
		{"read-seq", topo.Read, topo.Seq},
	} {
		for _, size := range fig6Sizes {
			per := tp.LocalAccessTime(combo.op, combo.pat, size, false)
			fig.Line(combo.label).Add(float64(size), 1.0/per.Seconds()/1e6)
		}
	}
	return &Report{
		ID:      "fig6c",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: local asymmetry 4-8x, much larger than the remote ~2x (multi-level caches vs a single translation cache)",
		},
	}, nil
}

// Fig06dRegisteredSize reproduces Figure 6(d): 32 B access throughput vs the
// registered region size, 4 KB to 4 GB. Below the translation cache's 4 MB
// coverage the rand/seq gap vanishes.
func (r *run) Fig06dRegisteredSize(scale float64) (*Report, error) {
	fig := stats.NewFigure("Fig 6d: throughput vs registered region size (32B writes)", "region(B)", "throughput (MOPS)")
	h := horizon(scale, 5*sim.Millisecond)
	regions := []int{4 << 10, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}
	combos := []struct {
		label string
		s, d  bool
	}{
		{"rand-rand", false, false},
		{"rand-seq", false, true},
		{"seq-rand", true, false},
		{"seq-seq", true, true},
	}
	ms, err := points(r, len(combos)*len(regions), func(i int) (float64, error) {
		combo := combos[i/len(regions)]
		return r.randSeqThroughput(verbs.OpWrite, combo.s, combo.d, 32, regions[i%len(regions)], h)
	})
	if err != nil {
		return nil, err
	}
	for ci, combo := range combos {
		for ri, region := range regions {
			fig.Line(combo.label).Add(float64(region), ms[ci*len(regions)+ri])
		}
	}
	return &Report{
		ID:      "fig6d",
		Figures: []*stats.Figure{fig},
		Notes: []string{
			"paper: below 4MB the rand/seq difference is under 1% (the SRAM translation cache covers the region)",
			"host-memory substitution: sweep tops out at 1GB instead of 4GB; the curve is flat beyond the 4MB crossover either way",
		},
	}, nil
}
