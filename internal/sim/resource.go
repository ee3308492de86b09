package sim

import (
	"fmt"
	"sort"
)

// maxIntervals bounds the busy-interval bookkeeping of a Resource. When the
// list grows past this, the oldest half is folded into one solid span, which
// conservatively closes any remaining gaps there.
const maxIntervals = 256

// interval is one contiguous busy span [start, end).
type interval struct {
	start Time
	end   Time
}

// Resource models a single server: one request is serviced at a time.
// Requests are placed at the earliest free gap at or after their arrival
// time, so the service discipline approximates FCFS in *arrival* order even
// when Acquire calls arrive out of order — which happens whenever a
// multi-round-trip operation is simulated atomically and a later-dispatched
// operation has an earlier arrival at a shared stage.
//
// Resource is not safe for concurrent use; the event kernel is single
// threaded over virtual time by design.
type Resource struct {
	name      string
	strict    bool       // strict FIFO: no gap-filling, later calls queue at the tail
	intervals []interval // sorted, non-overlapping, non-adjacent
	busy      Duration   // accumulated service time, for utilization
	served    int64      // number of Acquire calls
	onAcquire AcquireFunc
}

// AcquireFunc observes one service placement on a Resource or Pipe: the
// request arrived at arrival, started service at start (start - arrival is
// the queueing wait) and completes at end. Observers are passive — they see
// the same placement the caller receives and must not touch simulation
// state, so attaching one never changes timing.
type AcquireFunc func(arrival, start, end Time)

// Observe attaches fn as the resource's acquire observer (nil detaches).
// The observer survives Reset, so measurement phases that clear queue state
// keep reporting to the same telemetry streams.
func (r *Resource) Observe(fn AcquireFunc) { r.onAcquire = fn }

// NewResource returns an idle gap-filling resource with the given diagnostic
// name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// NewFIFOResource returns a resource with strict FIFO discipline: every
// request starts no earlier than all previously scheduled work, regardless
// of its arrival time. Use this for units that process requests strictly in
// order, like the RNIC's atomic unit — a lock release CAS must wait behind
// the competitor CASes already queued there.
func NewFIFOResource(name string) *Resource {
	return &Resource{name: name, strict: true}
}

// Acquire requests service of the given duration starting no earlier than
// arrival, placing it at the earliest gap that fits. It returns the start
// and end of the service window.
func (r *Resource) Acquire(arrival Time, service Duration) (start, end Time) {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %d on %s", service, r.name))
	}
	r.busy += service
	r.served++
	start = r.place(arrival, service)
	end = start + service
	if r.onAcquire != nil {
		r.onAcquire(arrival, start, end)
	}
	return start, end
}

// place finds the earliest gap at or after arrival that fits the service and
// records it. A zero-length service passes through the queue: it lands at
// the first idle instant at or after arrival.
func (r *Resource) place(arrival Time, service Duration) Time {
	// Fast path: after the last busy span.
	n := len(r.intervals)
	if n == 0 || arrival >= r.intervals[n-1].end {
		r.insertAt(n, arrival, service)
		return arrival
	}
	if r.strict {
		start := r.intervals[n-1].end
		r.insertAt(n, start, service)
		return start
	}
	// Find the first interval ending after arrival.
	i := sort.Search(n, func(k int) bool { return r.intervals[k].end > arrival })
	for ; i <= n; i++ {
		gapStart := arrival
		if i > 0 && r.intervals[i-1].end > gapStart {
			gapStart = r.intervals[i-1].end
		}
		gapEnd := MaxTime
		if i < n {
			gapEnd = r.intervals[i].start
		}
		if gapEnd-gapStart > service || (gapEnd == MaxTime && gapEnd-gapStart >= service) {
			r.insertAt(i, gapStart, service)
			return gapStart
		}
		if service > 0 && gapEnd-gapStart == service {
			r.insertAt(i, gapStart, service)
			return gapStart
		}
	}
	panic("sim: unreachable: tail gap always fits")
}

// insertAt records [start, start+service) as busy, inserting before index i
// and merging with adjacent intervals. Zero-length services record nothing.
func (r *Resource) insertAt(i int, start Time, service Duration) {
	if service == 0 {
		return
	}
	end := start + service
	// Merge with predecessor?
	mergePrev := i > 0 && r.intervals[i-1].end == start
	mergeNext := i < len(r.intervals) && r.intervals[i].start == end
	switch {
	case mergePrev && mergeNext:
		r.intervals[i-1].end = r.intervals[i].end
		r.intervals = append(r.intervals[:i], r.intervals[i+1:]...)
	case mergePrev:
		r.intervals[i-1].end = end
	case mergeNext:
		r.intervals[i].start = start
	default:
		r.intervals = append(r.intervals, interval{})
		copy(r.intervals[i+1:], r.intervals[i:])
		r.intervals[i] = interval{start, end}
	}
	if len(r.intervals) > maxIntervals {
		// Fold the oldest half into one solid span: conservative (gaps
		// there become busy), bounded memory.
		half := len(r.intervals) / 2
		solid := interval{r.intervals[0].start, r.intervals[half-1].end}
		rest := r.intervals[half-1:]
		rest[0] = solid
		r.intervals = append(r.intervals[:0], rest...)
	}
}

// Delay is a convenience wrapper that returns only the completion time.
func (r *Resource) Delay(arrival Time, service Duration) Time {
	_, end := r.Acquire(arrival, service)
	return end
}

// NextFree reports the end of the last scheduled busy span.
func (r *Resource) NextFree() Time {
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
}

// Busy reports the accumulated service time.
func (r *Resource) Busy() Duration { return r.busy }

// Served reports the number of completed service requests.
func (r *Resource) Served() int64 { return r.served }

// Utilization reports the fraction of [0, horizon] the resource spent busy.
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(horizon)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() {
	r.intervals = r.intervals[:0]
	r.busy = 0
	r.served = 0
}

// Pipe models a bandwidth-limited channel (a wire, a PCIe lane bundle, a
// memory channel): transfers serialize, and each transfer of n bytes occupies
// the pipe for n/bandwidth plus a fixed per-transfer overhead.
type Pipe struct {
	res            Resource
	bytesPerSecond float64
	overhead       Duration
	bytes          int64
}

// NewPipe returns a pipe with the given bandwidth in bytes per second and a
// fixed per-transfer overhead (header/arbitration cost).
func NewPipe(name string, bytesPerSecond float64, overhead Duration) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive: " + name)
	}
	return &Pipe{res: Resource{name: name}, bytesPerSecond: bytesPerSecond, overhead: overhead}
}

// Transfer schedules a transfer of size bytes arriving at the given time and
// returns the start and completion of the transfer.
func (p *Pipe) Transfer(arrival Time, size int) (start, end Time) {
	service := p.overhead + TransferTime(size, p.bytesPerSecond)
	p.bytes += int64(size)
	return p.res.Acquire(arrival, service)
}

// Delay is a convenience wrapper around Transfer returning only completion.
func (p *Pipe) Delay(arrival Time, size int) Time {
	_, end := p.Transfer(arrival, size)
	return end
}

// Observe attaches fn as the pipe's transfer observer (nil detaches); each
// Transfer reports its arrival, service start and completion. Like
// Resource.Observe, attachment never changes timing and survives Reset.
func (p *Pipe) Observe(fn AcquireFunc) { p.res.Observe(fn) }

// Bytes reports the cumulative bytes transferred.
func (p *Pipe) Bytes() int64 { return p.bytes }

// Busy reports accumulated service time.
func (p *Pipe) Busy() Duration { return p.res.Busy() }

// Utilization reports the busy fraction of [0, horizon].
func (p *Pipe) Utilization(horizon Time) float64 { return p.res.Utilization(horizon) }

// Reset returns the pipe to its initial idle state.
func (p *Pipe) Reset() {
	p.res.Reset()
	p.bytes = 0
}
