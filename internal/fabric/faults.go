package fabric

import (
	"fmt"
	"strconv"
	"strings"

	"rdmasem/internal/sim"
)

// FaultPlan describes a seeded, deterministic lossy-fabric model. Every
// segment handed to Fabric.Deliver draws its fate from a counter-based hash
// of (Seed, sending link, per-link sequence number), so the same plan on the
// same traffic always produces the same drops, corruptions and delays —
// across runs, hosts and sweep-pool widths. A nil plan disables injection
// entirely: Deliver then takes exactly the Send path, bit for bit.
type FaultPlan struct {
	Seed    int64   // fault-stream seed; same seed => same fault pattern
	Drop    float64 // per-segment probability the switch loses the segment
	Corrupt float64 // per-segment probability of an ICRC failure at the receiver
	DelayP  float64 // per-segment probability of extra queueing delay
	Delay   sim.Duration
	// Delay is the maximum extra delay; the actual delay is uniform in
	// [0, Delay] when the DelayP draw hits.

	// FlapDown/FlapPeriod model link flapping: every FlapPeriod each link
	// goes down for FlapDown, and every segment sent on a down link (or
	// arriving on one) is lost. Each link's flap phase is drawn from the
	// seed, so links flap out of step but identically across runs. Zero
	// FlapPeriod (the default) disables flapping entirely.
	FlapDown   sim.Duration
	FlapPeriod sim.Duration

	// Crashes are machine-scoped outages: while a crash window covers a
	// machine, all of its links drop every segment in either direction and
	// its QPs are forced to the error state on their next post. The machine
	// restarts (links restored, QPs reconnectable) when the window ends.
	Crashes []CrashEvent
}

// CrashEvent is one machine crash/restart window: machine Machine goes down
// at At and comes back at At+Down.
type CrashEvent struct {
	Machine int
	At      sim.Time
	Down    sim.Duration
}

// Validate checks the plan's parameters.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"corrupt", p.Corrupt}, {"delayp", p.DelayP}} {
		if f.v < 0 || f.v > 1 || f.v != f.v {
			return fmt.Errorf("fabric: fault %s probability %v outside [0,1]", f.name, f.v)
		}
	}
	if p.Delay < 0 {
		return fmt.Errorf("fabric: negative fault delay %v", p.Delay)
	}
	if p.DelayP > 0 && p.Delay == 0 {
		return fmt.Errorf("fabric: delayp %v set with zero delay bound", p.DelayP)
	}
	if p.Delay > 0 && p.DelayP == 0 {
		return fmt.Errorf("fabric: delay %v set with zero delayp (the bound would be silently inert)", p.Delay)
	}
	if p.FlapDown < 0 || p.FlapPeriod < 0 {
		return fmt.Errorf("fabric: negative flap window (down=%v period=%v)", p.FlapDown, p.FlapPeriod)
	}
	if p.FlapDown > 0 && p.FlapPeriod <= p.FlapDown {
		return fmt.Errorf("fabric: flap period %v must exceed the down window %v (the link must come back up)", p.FlapPeriod, p.FlapDown)
	}
	if p.FlapPeriod > 0 && p.FlapDown == 0 {
		return fmt.Errorf("fabric: flap period %v set with zero down window (flapping would be silently inert)", p.FlapPeriod)
	}
	for _, e := range p.Crashes {
		if e.Machine < 0 {
			return fmt.Errorf("fabric: crash event names negative machine %d", e.Machine)
		}
		if e.At < 0 {
			return fmt.Errorf("fabric: crash event at negative time %v", e.At)
		}
		if e.Down <= 0 {
			return fmt.Errorf("fabric: crash event outage must be positive, got %v", e.Down)
		}
	}
	return nil
}

// Active reports whether the plan can ever perturb a segment.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.Drop > 0 || p.Corrupt > 0 || p.DelayP > 0 ||
		p.FlapDown > 0 || len(p.Crashes) > 0)
}

// HasOutages reports whether the plan schedules link-flap windows or machine
// crashes (the failure modes the recovery layer exists for). The per-segment
// outage check in Deliver is skipped entirely when this is false, so plans
// without outages keep their exact historical fault stream.
func (p *FaultPlan) HasOutages() bool {
	return p != nil && (p.FlapDown > 0 || len(p.Crashes) > 0)
}

// HasCrashes reports whether the plan schedules machine crash windows.
func (p *FaultPlan) HasCrashes() bool { return p != nil && len(p.Crashes) > 0 }

// String renders the plan in the same key=value form ParseFaultPlan accepts.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.Drop))
	}
	if p.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", p.Corrupt))
	}
	if p.DelayP > 0 {
		parts = append(parts, fmt.Sprintf("delayp=%g", p.DelayP))
	}
	if p.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%d", int64(p.Delay)))
	}
	if p.FlapDown > 0 {
		parts = append(parts, fmt.Sprintf("flapdown=%d", int64(p.FlapDown)))
	}
	if p.FlapPeriod > 0 {
		parts = append(parts, fmt.Sprintf("flapperiod=%d", int64(p.FlapPeriod)))
	}
	if len(p.Crashes) > 0 {
		evs := make([]string, len(p.Crashes))
		for i, e := range p.Crashes {
			evs[i] = fmt.Sprintf("%d@%d+%d", e.Machine, int64(e.At), int64(e.Down))
		}
		parts = append(parts, "crash="+strings.Join(evs, ";"))
	}
	return strings.Join(parts, ",")
}

// parseCrashes parses the crash=<m>@<at>+<down>[;...] event list.
func parseCrashes(v string) ([]CrashEvent, error) {
	var out []CrashEvent
	for _, ev := range strings.Split(v, ";") {
		ev = strings.TrimSpace(ev)
		m, rest, ok := strings.Cut(ev, "@")
		if !ok {
			return nil, fmt.Errorf("fabric: crash event %q is not machine@at+down", ev)
		}
		at, down, ok := strings.Cut(rest, "+")
		if !ok {
			return nil, fmt.Errorf("fabric: crash event %q is not machine@at+down", ev)
		}
		var e CrashEvent
		var err error
		if e.Machine, err = strconv.Atoi(strings.TrimSpace(m)); err != nil {
			return nil, fmt.Errorf("fabric: crash event machine %q: %v", m, err)
		}
		atN, err := strconv.ParseInt(strings.TrimSpace(at), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fabric: crash event time %q: %v", at, err)
		}
		downN, err := strconv.ParseInt(strings.TrimSpace(down), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fabric: crash event outage %q: %v", down, err)
		}
		e.At, e.Down = sim.Time(atN), sim.Duration(downN)
		out = append(out, e)
	}
	return out, nil
}

// ParseFaultPlan parses a comma-separated key=value plan description, e.g.
//
//	seed=7,drop=0.01,corrupt=0.001,delayp=0.05,delay=2000
//	seed=7,flapdown=4000,flapperiod=50000,crash=1@30000+20000
//
// Keys: seed (int), drop/corrupt/delayp (probabilities in [0,1]), delay
// (max extra delay, virtual nanoseconds), flapdown/flapperiod (link-flap
// window and cycle, virtual nanoseconds), crash (machine@at+down events,
// ';'-separated). Unknown or repeated keys are errors. The returned plan is
// validated.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("fabric: empty fault plan")
	}
	p := &FaultPlan{}
	seen := map[string]bool{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fabric: fault plan term %q is not key=value", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if seen[k] {
			return nil, fmt.Errorf("fabric: repeated fault plan key %q", k)
		}
		seen[k] = true
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fabric: fault plan seed %q: %v", v, err)
			}
			p.Seed = n
		case "drop", "corrupt", "delayp":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("fabric: fault plan %s %q: %v", k, v, err)
			}
			switch k {
			case "drop":
				p.Drop = f
			case "corrupt":
				p.Corrupt = f
			default:
				p.DelayP = f
			}
		case "delay", "flapdown", "flapperiod":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fabric: fault plan %s %q: %v", k, v, err)
			}
			switch k {
			case "delay":
				p.Delay = sim.Duration(n)
			case "flapdown":
				p.FlapDown = sim.Duration(n)
			default:
				p.FlapPeriod = sim.Duration(n)
			}
		case "crash":
			evs, err := parseCrashes(v)
			if err != nil {
				return nil, err
			}
			p.Crashes = evs
		default:
			return nil, fmt.Errorf("fabric: unknown fault plan key %q (have seed, drop, corrupt, delayp, delay, flapdown, flapperiod, crash)", k)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Verdict is the fate of one segment offered to Deliver.
type Verdict int

// Segment fates. A corrupted segment still serializes on both links (the
// bytes travel, the ICRC check at the receiver fails); a dropped segment is
// lost inside the switch and never charges the receiver.
const (
	Delivered Verdict = iota
	Dropped
	Corrupted
)

func (v Verdict) String() string {
	switch v {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	default:
		return "corrupted"
	}
}

// FaultStats tallies the fault model's activity on one fabric.
type FaultStats struct {
	Segments   uint64 // segments offered to Deliver
	Drops      uint64
	Corrupts   uint64
	Delays     uint64
	FlapDrops  uint64 // segments lost to link-flap windows
	CrashDrops uint64 // segments lost to machine crash windows
}

// splitmix64 is the fault stream's stateless mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to a float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// linkDown reports whether link's flap window covers time t. Each link's
// phase within the flap period is drawn from the plan seed, so links flap
// out of step with each other but identically across runs and workers.
func (p *FaultPlan) linkDown(link int, t sim.Time) bool {
	if p.FlapDown <= 0 {
		return false
	}
	phase := sim.Duration(splitmix64(uint64(p.Seed)^splitmix64(uint64(link))) % uint64(p.FlapPeriod))
	return (sim.Duration(t)+phase)%p.FlapPeriod < p.FlapDown
}

// MachineDown reports whether a crash window covers machine at time t.
// Machine -1 (an endpoint registered without a machine) is never down. Nil
// plans report up, so callers can delegate without checking for a plan.
func (p *FaultPlan) MachineDown(machine int, t sim.Time) bool {
	if p == nil || machine < 0 {
		return false
	}
	for _, e := range p.Crashes {
		if e.Machine == machine && t >= e.At && t < e.At+sim.Time(e.Down) {
			return true
		}
	}
	return false
}

// fate draws the verdict and extra delay for segment seq on link. The draw
// is a pure function of (plan seed, link id, sequence number): no RNG state,
// so concurrent clusters and repeated runs see identical fault streams.
func (p *FaultPlan) fate(link int, seq uint64) (Verdict, sim.Duration) {
	h := splitmix64(uint64(p.Seed) ^ splitmix64(uint64(link)<<32^seq))
	if unit(h) < p.Drop {
		return Dropped, 0
	}
	h = splitmix64(h)
	if unit(h) < p.Corrupt {
		return Corrupted, 0
	}
	h = splitmix64(h)
	if unit(h) < p.DelayP {
		h = splitmix64(h)
		return Delivered, sim.Duration(unit(h) * float64(p.Delay))
	}
	return Delivered, 0
}

// Deliver moves one segment from one endpoint to another under the fabric's
// fault plan, returning the arrival time of the last byte and the segment's
// fate. With no plan configured it is exactly Send. For a dropped segment
// the returned time is when the segment would have arrived — the sender's
// tx link was still occupied; the receiver's was not. Loopback segments
// never fault: they stay inside the port and cross no switch buffer.
func (f *Fabric) Deliver(now sim.Time, from, to *Endpoint, payload int) (sim.Time, Verdict) {
	plan := f.params.Faults
	if plan == nil || from == to {
		return f.Send(now, from, to, payload), Delivered
	}
	if from == nil || to == nil {
		panic("fabric: nil endpoint")
	}
	if payload < 0 {
		panic("fabric: negative payload")
	}
	from.faults.Segments++
	wire := payload + f.params.FrameOverhead
	txStart, _ := from.tx.Transfer(now, wire)
	arrival := txStart + f.params.Propagation + f.params.SwitchLatency
	if plan.HasOutages() {
		// Outage losses are decided by the wall clock, not the fate stream:
		// a down link or a crashed machine loses the segment no matter what
		// the hash would have said, and draws nothing from the stream — so a
		// plan whose outage windows never fire keeps its exact historical
		// fault pattern. The sender's tx link was still occupied (the bytes
		// left the port before the loss), hence the Transfer above.
		if plan.MachineDown(from.machine, now) || plan.MachineDown(to.machine, arrival) {
			from.faults.CrashDrops++
			return arrival, Dropped
		}
		if plan.linkDown(from.id, now) || plan.linkDown(to.id, arrival) {
			from.faults.FlapDrops++
			return arrival, Dropped
		}
	}
	from.faultSeq++
	verdict, extra := plan.fate(from.id, from.faultSeq)
	switch verdict {
	case Dropped:
		// Lost inside the switch: nothing merges into the destination inbox.
		from.faults.Drops++
		return arrival, Dropped
	case Corrupted:
		from.faults.Corrupts++
	default:
		if extra > 0 {
			from.faults.Delays++
			arrival += extra
		}
	}
	to.inbox.merge(arrival, from.id)
	_, rxEnd := to.rx.Transfer(arrival, wire)
	return rxEnd, verdict
}

// FaultsEnabled reports whether a fault plan is attached to this fabric.
func (f *Fabric) FaultsEnabled() bool { return f.params.Faults != nil }

// FaultStats returns the fault model's fabric-wide tallies: the sum of every
// endpoint's per-link share. Tallies live on the sending endpoint (never on
// the shared Fabric), so kernel shards owning disjoint machines count faults
// without sharing a mutable word; the sum is commutative and therefore
// identical at any worker count.
func (f *Fabric) FaultStats() FaultStats {
	var s FaultStats
	for _, e := range f.endpoints {
		s.Add(e.faults)
	}
	return s
}

// Add accumulates o into s.
func (s *FaultStats) Add(o FaultStats) {
	s.Segments += o.Segments
	s.Drops += o.Drops
	s.Corrupts += o.Corrupts
	s.Delays += o.Delays
	s.FlapDrops += o.FlapDrops
	s.CrashDrops += o.CrashDrops
}

// FaultStats returns this endpoint's share of the fabric fault tallies
// (faults drawn on segments this port sent).
func (e *Endpoint) FaultStats() FaultStats { return e.faults }
