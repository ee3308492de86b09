package sim

// Op performs one logical operation posted at the given virtual time and
// returns the operation's completion time. An Op typically walks the posted
// request through a series of Resources and Pipes. Completion must not
// precede the post time.
type Op func(post Time) (complete Time)

// Client is one closed-loop load generator: it issues operations back to
// back, keeping at most Window operations in flight, spending PostCost of
// its own (CPU) time per issue.
type Client struct {
	Op       Op
	PostCost Duration // CPU issue cost per operation; must be > 0
	Window   int      // maximum outstanding operations; must be >= 1
	MaxOps   int64    // stop after this many posts; 0 means until horizon
	// RecordLatencies keeps every completion latency so the result can
	// report percentiles; leave false for long runs to save memory.
	RecordLatencies bool

	// state
	nextPost    Time
	outstanding timeHeap
	posted      int64
	completed   int64 // completions observed within the horizon
	latencySum  Duration
	latencyMax  Duration
	latencyMin  Duration
	latencies   []Duration // populated when RecordLatencies is set
	cpuBusy     Duration   // CPU time charged via PostCost
}

// ClientStats summarizes one client's activity after a run.
type ClientStats struct {
	Posted     int64
	Completed  int64
	LatencyAvg Duration
	LatencyMin Duration
	LatencyMax Duration
	CPUBusy    Duration
	Latencies  []Duration // sorted; only with RecordLatencies
}

// Percentile returns the p-quantile (0..1) of the recorded latencies, or 0
// when none were recorded. The quantile is linearly interpolated between the
// two nearest order statistics (the "R-7" estimator), so Percentile(0.5) of
// {10, 20} is 15, not 10.
func (s ClientStats) Percentile(p float64) Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(len(s.Latencies)-1)
	lo := int(rank)
	if lo >= len(s.Latencies)-1 {
		return s.Latencies[len(s.Latencies)-1]
	}
	frac := rank - float64(lo)
	a, b := s.Latencies[lo], s.Latencies[lo+1]
	// Round half up so the interpolated Duration is the nearest nanosecond.
	return a + Duration(frac*float64(b-a)+0.5)
}

// Result summarizes a closed-loop run.
type Result struct {
	Horizon   Time
	Completed int64
	Clients   []ClientStats
}

// Throughput reports completed operations per second of virtual time.
func (r Result) Throughput() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Horizon.Seconds()
}

// MOPS reports throughput in millions of operations per second, the unit the
// paper plots.
func (r Result) MOPS() float64 { return r.Throughput() / 1e6 }

// LatencyAvg reports the completion-weighted mean latency over all clients.
func (r Result) LatencyAvg() Duration {
	var sum Duration
	var n int64
	for _, c := range r.Clients {
		sum += c.LatencyAvg * Duration(c.Completed)
		n += c.Completed
	}
	if n == 0 {
		return 0
	}
	return sum / Duration(n)
}

// TotalCPUBusy reports the summed CPU busy time across clients.
func (r Result) TotalCPUBusy() Duration {
	var sum Duration
	for _, c := range r.Clients {
		sum += c.CPUBusy
	}
	return sum
}

// nextAction reports when the client can next issue an operation.
func (c *Client) nextAction() Time {
	if len(c.outstanding) < c.Window {
		return c.nextPost
	}
	return Max(c.nextPost, c.outstanding[0])
}

// RunClosedLoop drives the clients in global virtual-time order until the
// horizon. Operations posted before the horizon run to completion, but only
// completions at or before the horizon are counted, so Result.Throughput is a
// steady-state estimate. The clients' Op closures may share state freely:
// dispatch is strictly sequential in time order.
//
// RunClosedLoop is the single-shard configuration of the sharded Kernel —
// every client registered with no footprint, so nothing runs concurrently.
// Clients whose ops are confined to declared machine footprints can run
// through a Kernel (or cluster.Engine) instead and use multiple cores.
func RunClosedLoop(clients []*Client, horizon Time) Result {
	k := NewKernel(1)
	for _, c := range clients {
		k.Add(c)
	}
	return k.Run(horizon)
}

// RunOnce runs a single synchronous operation sequence: it executes op at
// time start and returns its latency. It is a convenience for pure latency
// probes that need no contention.
func RunOnce(op Op, start Time) Duration {
	end := op(start)
	if end < start {
		panic("sim: op completed before it was posted")
	}
	return end - start
}
