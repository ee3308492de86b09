package bench

import (
	"fmt"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/mem"
	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/stats"
	"rdmasem/internal/verbs"
)

// The recovery modes the availability experiment compares. Order is the
// plotting order.
var availModes = []string{"none", "reconnect", "reconnect+remap"}

// flapPoint is one link-flap intensity: the fabric takes every link down
// for Down out of every Period nanoseconds (per-link phase offsets come from
// the plan seed).
type flapPoint struct {
	Down, Period sim.Duration
}

// defaultFlaps sweeps 8%, 24% and 48% link downtime on a 25us flap period.
var defaultFlaps = []flapPoint{
	{Down: 2 * sim.Microsecond, Period: 25 * sim.Microsecond},
	{Down: 6 * sim.Microsecond, Period: 25 * sim.Microsecond},
	{Down: 12 * sim.Microsecond, Period: 25 * sim.Microsecond},
}

// availPoint is one (mode, fault scenario) measurement.
type availPoint struct {
	ok, failed uint64              // client ops that completed vs surfaced an error
	goodput    float64             // StatusOK completions per microsecond (MOPS)
	p99TTR     sim.Duration        // p99 time-to-recovery of replayed WRs
	rec        proxy.RecoveryStats // table recovery tallies
	failovers  uint64              // daemon requests redirected to the standby
}

// recoveryPolicyFor maps a mode name to the table policy (nil = no recovery).
func recoveryPolicyFor(mode string) *proxy.RecoveryPolicy {
	switch mode {
	case "reconnect":
		p := proxy.DefaultRecoveryPolicy()
		p.Remap = false
		return &p
	case "reconnect+remap":
		p := proxy.DefaultRecoveryPolicy()
		return &p
	default:
		return nil
	}
}

// Availability is the chaos sweep over the self-healing connection stack
// (golden #30): logical connections drive 64B WRITEs through a pooled
// connection table while every link flaps down for a growing share of each
// period, killing pooled QPs as retry budgets exhaust mid-window. Without
// recovery a dead QP's connections flush forever and goodput collapses as
// the pool bleeds out; the reconnect mode walks dead QPs back through the
// modeled RESET→INIT→RTR→RTS handshake, and reconnect+remap additionally
// moves the victims' connections onto surviving pool members while the walk
// runs. A second scenario crashes the server node outright (and the proxy
// daemon with it): the standby daemon takes over after the detection
// timeout and the table re-establishes its pool when the node restarts.
func (r *run) Availability(scale float64) (*Report, error) {
	modes, flaps := availModes, defaultFlaps
	h := horizon(scale, 2*sim.Millisecond)
	pts, err := points(r, len(modes)*len(flaps), func(i int) (availPoint, error) {
		return r.flapAvailabilityPoint(modes[i/len(flaps)], flaps[i%len(flaps)], h)
	})
	if err != nil {
		return nil, err
	}
	crash, err := points(r, len(modes), func(i int) (availPoint, error) {
		return r.crashAvailabilityPoint(modes[i], h)
	})
	if err != nil {
		return nil, err
	}

	dutyPct := func(f flapPoint) float64 {
		return 100 * float64(f.Down) / float64(f.Period)
	}
	fig := stats.NewFigure("Goodput under link flapping: 64B WRITEs through a pooled table vs link downtime", "link downtime (%)", "goodput (MOPS)")
	ttrFig := stats.NewFigure("p99 time-to-recovery of failed WRs vs link downtime", "link downtime (%)", "p99 TTR (us)")
	for mi, mode := range modes {
		for fi, f := range flaps {
			p := pts[mi*len(flaps)+fi]
			fig.Line(mode).Add(dutyPct(f), p.goodput)
			ttrFig.Line(mode).Add(dutyPct(f), float64(p.p99TTR)/float64(sim.Microsecond))
		}
	}

	top := len(flaps) - 1
	tb := stats.NewTable(fmt.Sprintf("Flap intensity %.0f%%: recovery activity and goodput", dutyPct(flaps[top])))
	tb.Row("mode", "ok ops", "failed ops", "goodput MOPS", "episodes", "reconnects", "remaps", "give-ups", "p99 TTR")
	for mi, mode := range modes {
		p := pts[mi*len(flaps)+top]
		tb.Row(mode,
			fmt.Sprintf("%d", p.ok),
			fmt.Sprintf("%d", p.failed),
			fmt.Sprintf("%.4f", p.goodput),
			fmt.Sprintf("%d", p.rec.Episodes),
			fmt.Sprintf("%d", p.rec.Reconnects),
			fmt.Sprintf("%d", p.rec.Remaps),
			fmt.Sprintf("%d", p.rec.GiveUps),
			fmt.Sprintf("%v", p.p99TTR))
	}

	ctb := stats.NewTable("Node crash + restart with daemon failover: goodput across the outage")
	ctb.Row("mode", "ok ops", "failed ops", "goodput MOPS", "failovers", "episodes", "reconnects", "p99 TTR")
	for mi, mode := range modes {
		p := crash[mi]
		ctb.Row(mode,
			fmt.Sprintf("%d", p.ok),
			fmt.Sprintf("%d", p.failed),
			fmt.Sprintf("%.4f", p.goodput),
			fmt.Sprintf("%d", p.failovers),
			fmt.Sprintf("%d", p.rec.Episodes),
			fmt.Sprintf("%d", p.rec.Reconnects),
			fmt.Sprintf("%v", p.p99TTR))
	}

	return &Report{
		ID:      "availability",
		Figures: []*stats.Figure{fig, ttrFig},
		Tables:  []*stats.Table{tb, ctb},
		Notes: []string{
			"none: a pooled QP whose retry budget exhausts inside a down window is dead forever; the pool bleeds out and goodput collapses",
			"reconnect: dead QPs walk RESET->INIT->RTR->RTS on the machines' connection managers and replay their captured WRs",
			"reconnect+remap: victims' connections move to surviving pool members immediately and come home when the walk lands",
			"crash scenario: the server node (and the primary proxy daemon) dies mid-run; the standby daemon answers after the detection timeout",
		},
	}, nil
}

// availEnv is the chaos workload: a two-machine cluster with a pooled
// connection table under a fault plan, every connection a closed-loop 64B
// WRITE client that keeps retrying through failures.
type availEnv struct {
	cl     *cluster.Cluster
	table  *proxy.Table
	ok     []uint64 // per-conn completed ops (one shard: no write races)
	fail   []uint64
	eng    *cluster.Engine
	postFn func(sim.Time, int, *verbs.SendWR) (proxy.Delivery, error)
}

const (
	availPool  = 8
	availConns = 16
)

// newAvailEnv builds the chaos cluster. The fault plan is the scenario's
// own (the bench-wide -faults plan does not compose with a chaos scenario);
// telemetry and timeline sinks attach as for every other driver.
func (r *run) newAvailEnv(plan *fabric.FaultPlan, policy *proxy.RecoveryPolicy) (*availEnv, error) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cl, err := r.newCluster(cfg, plan)
	if err != nil {
		return nil, err
	}
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	pool := make([]*verbs.QP, availPool)
	for i := range pool {
		qp, _ := verbs.MustConnect(ctxA, 1, ctxB, 1, verbs.RC)
		// A tight retry budget: two transmit attempts 4us apart, so a WR
		// whose attempts both land in one down window kills its QP.
		qp.SetRetryPolicy(verbs.RetryPolicy{
			RetryCount: 1, RNRRetryCount: 1,
			AckTimeout: 4 * sim.Microsecond, RNRTimer: 4 * sim.Microsecond,
		})
		pool[i] = qp
	}
	table, err := proxy.NewTable(pool, availConns)
	if err != nil {
		return nil, err
	}
	if policy != nil {
		if err := table.EnableRecovery(*policy); err != nil {
			return nil, err
		}
	}
	env := &availEnv{
		cl:    cl,
		table: table,
		ok:    make([]uint64, availConns),
		fail:  make([]uint64, availConns),
		eng:   cl.NewEngine(r.opts.EngineWorkers),
	}

	ra, err := cl.Machine(0).Alloc(1, 1<<20, 0)
	if err != nil {
		return nil, err
	}
	rb, err := cl.Machine(1).Alloc(1, 1<<20, 0)
	if err != nil {
		return nil, err
	}
	mrA, mrB := ctxA.MustRegisterMR(ra), ctxB.MustRegisterMR(rb)
	ma, mb := cl.Machine(0), cl.Machine(1)
	for c := 0; c < availConns; c++ {
		c := c
		wr := &verbs.SendWR{
			Opcode:     verbs.OpWrite,
			SGL:        []verbs.SGE{{Addr: mrA.Addr() + mem.Addr(c*64), Length: 64, MR: mrA}},
			RemoteAddr: mrB.Addr() + mem.Addr(c*64),
			RemoteKey:  mrB.RKey(),
		}
		env.eng.Add(&sim.Client{
			PostCost: 150,
			Window:   1,
			Op: func(post sim.Time) sim.Time {
				return env.step(post, c, wr)
			},
		}, ma, mb)
	}
	return env, nil
}

// step is one client iteration: post, tally the outcome, and on failure back
// off for an application-level retry interval so a dead connection paces
// itself instead of spinning at one virtual instant.
func (env *availEnv) step(post sim.Time, conn int, wr *verbs.SendWR) sim.Time {
	del, err := env.post(post, conn, wr)
	done := del.Completion.Done
	if done < post {
		done = post
	}
	if err == nil && del.Completion.Status == verbs.StatusOK {
		env.ok[conn]++
		return done
	}
	env.fail[conn]++
	return done + 2*sim.Microsecond
}

// post routes one request: the bare table by default, the daemon pair when
// the crash scenario overrides postFn.
func (env *availEnv) post(post sim.Time, conn int, wr *verbs.SendWR) (proxy.Delivery, error) {
	if env.postFn != nil {
		return env.postFn(post, conn, wr)
	}
	return env.table.Post(post, conn, wr)
}

// finish runs the horizon and folds the tallies into a point.
func (env *availEnv) finish(h sim.Duration) availPoint {
	env.eng.Run(h)
	p := availPoint{rec: env.table.RecoveryStats()}
	for c := 0; c < availConns; c++ {
		p.ok += env.ok[c]
		p.failed += env.fail[c]
	}
	p.goodput = float64(p.ok) * float64(sim.Microsecond) / float64(h)
	if ttr := env.table.RecoveryTTR(); ttr != nil {
		p.p99TTR = ttr.Quantile(0.99)
	}
	return p
}

// flapAvailabilityPoint measures one (mode, flap intensity) point.
func (r *run) flapAvailabilityPoint(mode string, f flapPoint, h sim.Duration) (availPoint, error) {
	plan := &fabric.FaultPlan{Seed: 7, FlapDown: f.Down, FlapPeriod: f.Period}
	env, err := r.newAvailEnv(plan, recoveryPolicyFor(mode))
	if err != nil {
		return availPoint{}, err
	}
	return env.finish(h), nil
}

// crashAvailabilityPoint measures the node-crash scenario for one mode: the
// server machine is down for the middle quarter of the run, the primary
// daemon dies with it, and (in the recovery modes) a standby daemon takes
// over while the table re-establishes its pool after the restart.
func (r *run) crashAvailabilityPoint(mode string, h sim.Duration) (availPoint, error) {
	crashAt := sim.Time(h / 2)
	plan := &fabric.FaultPlan{Seed: 7, Crashes: []fabric.CrashEvent{
		{Machine: 1, At: crashAt, Down: h / 4},
	}}
	env, err := r.newAvailEnv(plan, recoveryPolicyFor(mode))
	if err != nil {
		return availPoint{}, err
	}
	primary, err := proxy.NewDaemon(env.table)
	if err != nil {
		return availPoint{}, err
	}
	primary.FailAt(crashAt)
	if mode != "none" {
		standby, err := proxy.NewDaemon(env.table)
		if err != nil {
			return availPoint{}, err
		}
		if err := primary.SetStandby(standby); err != nil {
			return availPoint{}, err
		}
	}
	env.postFn = func(postAt sim.Time, conn int, wr *verbs.SendWR) (proxy.Delivery, error) {
		return primary.Post(postAt, conn, wr)
	}
	p := env.finish(h)
	p.failovers = primary.Failovers()
	return p, nil
}
