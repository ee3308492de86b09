// Package rnic models an RDMA-capable NIC at the granularity the paper's
// observations require: on-device SRAM metadata caches (address translation,
// QP context, MR records), per-port execution units and atomic units, and
// the PCIe path between host memory and the device (MMIO doorbells, WQE
// fetches, scatter/gather DMA).
//
// The model deliberately mirrors Section II-B of the paper: packet
// throttling emerges from the execution-unit service rate, the
// sequential/random asymmetry from translation-cache misses, QP/MR
// scalability limits from the corresponding caches, and the vector-IO
// strategies' trade-offs from the MMIO/WQE/SGE cost split.
package rnic

import (
	"fmt"

	"rdmasem/internal/mem"
	"rdmasem/internal/sim"
)

// NIC is one RDMA NIC: a set of ports sharing a PCIe link and one on-device
// SRAM metadata cache complex.
type NIC struct {
	name     string
	params   Params
	ports    []*Port
	pcieDown *sim.Pipe // DMA reads: host DRAM -> device (WQE fetch, gathers)
	pcieUp   *sim.Pipe // DMA writes: device -> host DRAM (scatters, CQEs)
	xlate    *LRU      // page-translation entries
	qpCache  *LRU      // QP contexts
	mrCache  *LRU      // MR records
	counters StageCounters
}

// StageCounters tallies, per device, how often each stage of the op
// pipeline touched the NIC. They fall out of the engine's single stage walk
// (doorbell -> WQE fetch -> gather -> ... -> scatter) for free and cost
// nothing in the timing model; cache hit/miss counts live on the LRUs and
// are folded in by NIC.Counters.
type StageCounters struct {
	Doorbells    uint64 // MMIO doorbell writes
	DoorbellWQEs uint64 // WQEs handed over across all doorbells
	WQEFetches   uint64 // WQEs DMA'd from host memory
	GatherOps    uint64 // gather DMA operations (host -> device)
	GatherFrags  uint64 // SGL fragments gathered
	GatherBytes  uint64 // payload bytes gathered
	ScatterOps   uint64 // scatter DMA operations (device -> host)
	ScatterFrags uint64 // SGL fragments scattered
	ScatterBytes uint64 // payload bytes scattered

	TranslationHits   uint64
	TranslationMisses uint64
	QPHits            uint64
	QPMisses          uint64
	MRHits            uint64
	MRMisses          uint64

	// Rel tallies the reliability layer's activity on a lossy fabric. All
	// zero when no fault plan is attached.
	Rel RelCounters
}

// QPHitRate returns the QP-context cache hit fraction of this snapshot, or
// 1 when the cache was never touched (an untouched cache has missed
// nothing). Subtract two snapshots first to rate an interval.
func (c StageCounters) QPHitRate() float64 {
	total := c.QPHits + c.QPMisses
	if total == 0 {
		return 1
	}
	return float64(c.QPHits) / float64(total)
}

// RelCounters is the device-wide reliability tally, summed over every QP on
// the NIC. The verbs layer maintains it; it costs nothing in the timing
// model.
type RelCounters struct {
	Segments         uint64 // wire segments emitted, including retransmits
	Retransmits      uint64 // segments re-sent by go-back-N recovery
	AckTimeouts      uint64 // recovery rounds entered via ACK timeout
	NaksReceived     uint64 // go-back-N sequence NAKs received
	RNRNaks          uint64 // receiver-not-ready NAKs received
	RetriesExhausted uint64 // WRs that errored out after the retry budget
	FlushedWRs       uint64 // WRs flushed on an error-state QP
	SilentDrops      uint64 // UC/UD messages lost with no recovery
	Reconnects       uint64 // QPs cycled back to READY via Reconnect
}

// Add accumulates o into c.
func (c *RelCounters) Add(o RelCounters) {
	c.Segments += o.Segments
	c.Retransmits += o.Retransmits
	c.AckTimeouts += o.AckTimeouts
	c.NaksReceived += o.NaksReceived
	c.RNRNaks += o.RNRNaks
	c.RetriesExhausted += o.RetriesExhausted
	c.FlushedWRs += o.FlushedWRs
	c.SilentDrops += o.SilentDrops
	c.Reconnects += o.Reconnects
}

// Rel returns the device's mutable reliability counters; the verbs layer
// bumps them as segments move.
func (n *NIC) Rel() *RelCounters { return &n.counters.Rel }

// Counters returns a snapshot of the device's stage counters, including the
// metadata-cache hit/miss tallies.
func (n *NIC) Counters() StageCounters {
	c := n.counters
	c.TranslationHits, c.TranslationMisses = uint64(n.xlate.Hits()), uint64(n.xlate.Misses())
	c.QPHits, c.QPMisses = uint64(n.qpCache.Hits()), uint64(n.qpCache.Misses())
	c.MRHits, c.MRMisses = uint64(n.mrCache.Hits()), uint64(n.mrCache.Misses())
	return c
}

// Port is one physical port with its own execution engine, atomic unit and
// wire (the wire itself lives in the fabric package).
type Port struct {
	nic    *NIC
	index  int
	exec   *sim.Resource
	atomic *sim.Resource
}

// New creates a NIC with the given diagnostic name and parameters.
func New(name string, p Params) (*NIC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := &NIC{
		name:     name,
		params:   p,
		pcieDown: sim.NewPipe(name+"/pcie-rd", p.PCIeBandwidth, p.PCIeOverhead),
		pcieUp:   sim.NewPipe(name+"/pcie-wr", p.PCIeBandwidth, p.PCIeOverhead),
		xlate:    NewLRU(p.TranslationEntries),
		qpCache:  NewLRU(p.QPCacheEntries),
		mrCache:  NewLRU(p.MRCacheEntries),
	}
	for i := 0; i < p.Ports; i++ {
		n.ports = append(n.ports, &Port{
			nic:    n,
			index:  i,
			exec:   sim.NewResource(fmt.Sprintf("%s/port%d/exec", name, i)),
			atomic: sim.NewResource(fmt.Sprintf("%s/port%d/atomic", name, i)),
		})
	}
	return n, nil
}

// Params returns the NIC's configuration.
func (n *NIC) Params() Params { return n.params }

// Port returns port i.
func (n *NIC) Port(i int) *Port {
	if i < 0 || i >= len(n.ports) {
		panic(fmt.Sprintf("rnic: %s has no port %d", n.name, i))
	}
	return n.ports[i]
}

// Ports returns the number of ports.
func (n *NIC) Ports() int { return len(n.ports) }

// TranslationCache exposes the page-translation cache (for tests and
// ablation benchmarks).
func (n *NIC) TranslationCache() *LRU { return n.xlate }

// QPCache exposes the QP-context cache.
func (n *NIC) QPCache() *LRU { return n.qpCache }

// MRCache exposes the MR-record cache.
func (n *NIC) MRCache() *LRU { return n.mrCache }

// Doorbell charges the CPU-side MMIO that hands nWQE work-queue entries to
// the NIC, plus inlineBytes of payload carried inside the MMIO write. It
// returns the time at which the doorbell has landed on the device. A
// doorbell list (Kalia et al.'s Doorbell batching) pays this exactly once
// for the whole list.
func (n *NIC) Doorbell(now sim.Time, nWQE, inlineBytes int) sim.Time {
	if nWQE < 1 {
		panic("rnic: doorbell needs at least one WQE")
	}
	n.counters.Doorbells++
	n.counters.DoorbellWQEs += uint64(nWQE)
	cost := n.params.MMIOCost + sim.Duration(inlineBytes)*n.params.InlinePerByte
	return now + cost
}

// FetchWQEs charges the device-side DMA that pulls nWQE entries from host
// memory after a doorbell, returning when the last entry is on the NIC.
func (n *NIC) FetchWQEs(now sim.Time, nWQE int) sim.Time {
	if nWQE < 1 {
		panic("rnic: must fetch at least one WQE")
	}
	n.counters.WQEFetches += uint64(nWQE)
	t := n.pcieDown.Delay(now, 64) // first WQE
	t += n.params.WQEFetch
	if nWQE > 1 {
		t = n.pcieDown.Delay(t, 64*(nWQE-1))
		t += sim.Duration(nWQE-1) * n.params.WQEFetchNext
	}
	return t
}

// GatherDMA charges the scatter/gather DMA that pulls the payload described
// by sizes from host memory into the NIC (the PCIe read channel). qpiCross
// counts how many of the buffers live on a socket other than the NIC's,
// adding the interconnect hop. It returns the completion time of the last
// fragment.
func (n *NIC) GatherDMA(now sim.Time, sizes []int, qpiCross int, qpi *sim.Pipe, qpiLatency sim.Duration) sim.Time {
	return n.sgDMA(n.pcieDown, now, sizes, qpiCross, qpi, qpiLatency)
}

// ScatterDMA charges the DMA that pushes payload from the NIC into host
// memory (the PCIe write channel): responder-side WRITE landing, READ
// response scatter at the requester, and receive-buffer fills.
func (n *NIC) ScatterDMA(now sim.Time, sizes []int, qpiCross int, qpi *sim.Pipe, qpiLatency sim.Duration) sim.Time {
	return n.sgDMA(n.pcieUp, now, sizes, qpiCross, qpi, qpiLatency)
}

func (n *NIC) sgDMA(pipe *sim.Pipe, now sim.Time, sizes []int, qpiCross int, qpi *sim.Pipe, qpiLatency sim.Duration) sim.Time {
	t := now
	total := 0
	for _, s := range sizes {
		total += s
		t += n.params.SGEFetch
	}
	if pipe == n.pcieDown {
		n.counters.GatherOps++
		n.counters.GatherFrags += uint64(len(sizes))
		n.counters.GatherBytes += uint64(total)
	} else {
		n.counters.ScatterOps++
		n.counters.ScatterFrags += uint64(len(sizes))
		n.counters.ScatterBytes += uint64(total)
	}
	t = pipe.Delay(t, total)
	if qpiCross > 0 && qpi != nil {
		t = qpi.Delay(t, total)
		t += sim.Duration(qpiCross) * qpiLatency
	}
	return t
}

// PCIeDown exposes the host-to-device (DMA read) channel.
func (n *NIC) PCIeDown() *sim.Pipe { return n.pcieDown }

// PCIeUp exposes the device-to-host (DMA write) channel.
func (n *NIC) PCIeUp() *sim.Pipe { return n.pcieUp }

// MetaCost aggregates the latency and execution-unit service inflation from
// SRAM metadata cache activity for one work request.
type MetaCost struct {
	Latency sim.Duration // added wire-visible latency
	Service sim.Duration // added execution-unit occupancy
	Misses  int
}

// Translate touches the translation entries for the pages covering
// [addr, addr+size), charging per-page miss costs.
func (n *NIC) Translate(addr mem.Addr, size int) MetaCost {
	if size <= 0 {
		size = 1
	}
	first := addr.Page()
	last := (addr + mem.Addr(size) - 1).Page()
	var mc MetaCost
	for p := first; p <= last; p++ {
		if !n.xlate.Access(p) {
			mc.Misses++
		}
	}
	mc.Latency = sim.Duration(mc.Misses) * n.params.TranslationMissLat
	mc.Service = sim.Duration(mc.Misses) * n.params.TranslationMissSvc
	return mc
}

// TouchQP touches the QP-context cache entry for the given QP.
func (n *NIC) TouchQP(qpID uint64) MetaCost {
	if n.qpCache.Access(qpID) {
		return MetaCost{}
	}
	return MetaCost{Latency: n.params.QPMissLat, Service: n.params.QPMissSvc, Misses: 1}
}

// TouchMR touches the MR-record cache entry for the given MR.
func (n *NIC) TouchMR(mrID uint64) MetaCost {
	if n.mrCache.Access(mrID) {
		return MetaCost{}
	}
	return MetaCost{Latency: n.params.MRMissLat, Service: n.params.MRMissSvc, Misses: 1}
}

// Add combines two metadata costs.
func (a MetaCost) Add(b MetaCost) MetaCost {
	return MetaCost{
		Latency: a.Latency + b.Latency,
		Service: a.Service + b.Service,
		Misses:  a.Misses + b.Misses,
	}
}

// Index returns the port's index on its NIC.
func (p *Port) Index() int { return p.index }

// NIC returns the owning device.
func (p *Port) NIC() *NIC { return p.nic }

// Execute occupies the port's execution unit for the base service time of
// the verb plus any metadata-induced inflation, returning completion.
func (p *Port) Execute(now sim.Time, base, inflation sim.Duration) sim.Time {
	return p.exec.Delay(now, base+inflation)
}

// ExecuteAtomic occupies the port's atomic unit (atomics serialize against
// each other on the responder, which is what bounds them to ~2.4 MOPS).
func (p *Port) ExecuteAtomic(now sim.Time) sim.Time {
	return p.atomic.Delay(now, p.nic.params.AtomicUnit)
}

// Exec exposes the execution-unit resource for utilization reporting.
func (p *Port) Exec() *sim.Resource { return p.exec }

// Atomic exposes the atomic-unit resource for utilization reporting.
func (p *Port) Atomic() *sim.Resource { return p.atomic }

// Reset clears all queues, caches and stage counters (between experiment
// runs).
func (n *NIC) Reset() {
	n.counters = StageCounters{}
	n.pcieDown.Reset()
	n.pcieUp.Reset()
	n.xlate.Reset()
	n.qpCache.Reset()
	n.mrCache.Reset()
	for _, p := range n.ports {
		p.exec.Reset()
		p.atomic.Reset()
	}
}
