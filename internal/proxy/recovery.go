// Connection recovery at the proxy layer: instead of folding every logical
// connection of a dead pooled QP to StatusFlushed forever, the table can
// remap them onto surviving pool members, replay the captured WRs with their
// tags preserved, and walk the dead QP back to READY on the clamped
// exponential back-off (the same sim.Backoff curve the spinlocks use).
// Remapped connections come home lazily once the reconnect lands, so the
// static conn→QP pinning — and its blast-radius guarantee — is restored
// after every episode.
package proxy

import (
	"errors"
	"fmt"

	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/verbs"
)

// RecoveryPolicy configures the table's reaction to a pooled QP entering
// the error state.
type RecoveryPolicy struct {
	Reconnect   bool        // walk the dead QP back to READY (ibv_modify_qp cycle)
	Remap       bool        // move its connections onto survivors meanwhile
	Backoff     sim.Backoff // clamped walk between reconnect attempts
	MaxAttempts int         // reconnect attempts per episode before giving up
}

// DefaultRecoveryPolicy reconnects and remaps on the shared DefaultBackoff
// walk, giving up after 8 attempts (~one clamped-backoff half-life).
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		Reconnect:   true,
		Remap:       true,
		Backoff:     sim.DefaultBackoff(),
		MaxAttempts: 8,
	}
}

// RecoveryStats tallies the table's recovery activity.
type RecoveryStats struct {
	Episodes          uint64 // pooled-QP failures the table reacted to
	Reconnects        uint64 // reconnect walks that restored a QP
	ReconnectFailures uint64 // individual reconnect attempts that failed
	GiveUps           uint64 // episodes whose reconnect budget exhausted
	Remaps            uint64 // logical connections moved to a survivor
	Rehomes           uint64 // displaced connections re-pinned to their home QP
	Replayed          uint64 // captured WRs reposted after a failure
	ReplayFailures    uint64 // of those, replays that failed again
}

// poolRecState is the table's per-pool-member recovery bookkeeping.
type poolRecState struct {
	reconnected bool     // the last episode's reconnect walk landed
	backAt      sim.Time // when it landed: displaced conns re-pin from here on
	retryAt     sim.Time // a failed walk exhausted here: no new walk before this
}

// EnableRecovery arms the table with a recovery policy: every pooled QP
// starts capturing failed WRs for replay, and Post runs a recovery episode
// instead of surfacing ErrQPError. The TTR histogram registers under
// component "proxy/recovery" when the local machine has telemetry attached.
func (t *Table) EnableRecovery(p RecoveryPolicy) error {
	if !p.Reconnect && !p.Remap {
		return fmt.Errorf("proxy: recovery policy enables neither reconnect nor remap")
	}
	if p.Reconnect {
		if p.MaxAttempts < 1 {
			return fmt.Errorf("proxy: reconnect needs at least one attempt, got %d", p.MaxAttempts)
		}
		if p.Backoff.Base <= 0 || p.Backoff.Max < p.Backoff.Base {
			return fmt.Errorf("proxy: malformed recovery backoff %+v", p.Backoff)
		}
	}
	t.rec = &p
	t.recQP = make([]poolRecState, len(t.pool))
	// The table's own histogram is always private: RecoveryTTR() must report
	// this table's episodes only. A telemetry registry, if attached, gets a
	// mirrored stream — registry histograms intern by machine label and so
	// aggregate across every cluster an experiment builds, which is exactly
	// right for -metrics summaries and exactly wrong for per-table stats.
	t.ttr = new(telemetry.Histogram)
	local, _ := t.Machines()
	if reg := local.Telemetry(); reg != nil {
		t.ttrReg = reg.Hist(local.Label(), "proxy/recovery", "ttr")
	}
	for _, qp := range t.pool {
		qp.SetReplayLog(true)
	}
	return nil
}

// RecoveryEnabled reports whether a recovery policy is armed.
func (t *Table) RecoveryEnabled() bool { return t.rec != nil }

// RecoveryStats returns the recovery tallies (zero value when disabled).
func (t *Table) RecoveryStats() RecoveryStats { return t.recStats }

// RecoveryTTR returns the time-to-recovery histogram: for every WR that
// failed and was successfully replayed, the virtual time from the failure
// surfacing to its recovered completion. Nil until EnableRecovery.
func (t *Table) RecoveryTTR() *telemetry.Histogram { return t.ttr }

// connQP resolves the pool member a connection posts on at the given time,
// lazily re-pinning a displaced connection to its home member once the
// home's reconnect walk has landed.
func (t *Table) connQP(now sim.Time, conn int) int {
	cur := t.conns[conn].qp
	if t.rec == nil {
		return cur
	}
	home := conn % len(t.pool)
	if cur != home {
		st := &t.recQP[home]
		if st.reconnected && now >= st.backAt && t.pool[home].State() == verbs.StateReady {
			t.conns[conn].qp = home
			t.recStats.Rehomes++
			return home
		}
	}
	return cur
}

// survivors returns the READY pool members other than qi, in pool order.
func (t *Table) survivors(qi int) []int {
	var out []int
	for i, qp := range t.pool {
		if i != qi && qp.State() == verbs.StateReady {
			out = append(out, i)
		}
	}
	return out
}

// recover runs one recovery episode for dead pool member qi. failed is the
// error-status completion of the one WR captured in the dead QP's replay log
// (its tag is still pending — recovery, not the failing post, delivers it);
// the failure surfaced at failed.Done.
//
// With Remap, the member's connections spread across the survivors
// immediately and the captured WR replays there; the reconnect walk then
// only gates when the connections come home. Without Remap the WR waits for
// the reconnect itself. Either way the WR is delivered exactly once: with its
// replayed completion on success, or with an authoritative error status when
// recovery gave up (reconnect budget exhausted with no survivor, or the
// replay failing again).
func (t *Table) recover(qi int, failed verbs.Completion) (Delivery, error) {
	rec := t.rec
	fail := failed.Done
	t.recStats.Episodes++
	t.recQP[qi].reconnected = false
	entries := t.pool[qi].TakeReplayLog()
	if len(entries) != 1 {
		return Delivery{}, fmt.Errorf("proxy: replay log holds %d WRs for one failed completion", len(entries))
	}

	if rec.Remap {
		if surv := t.survivors(qi); len(surv) > 0 {
			k := 0
			for c := range t.conns {
				if t.conns[c].qp == qi {
					t.conns[c].qp = surv[k%len(surv)]
					k++
					t.recStats.Remaps++
				}
			}
		}
	}

	// Reconnect walk on the clamped back-off. With remap in effect the
	// displaced connections are already flowing on the survivors; the walk
	// runs "in the background" on the machines' CM resources and only
	// decides when they come home. A member whose previous walk exhausted
	// its budget is in cooldown until that walk's horizon: new episodes for
	// it give up immediately instead of stampeding the connection managers
	// (a peer that is down for a long window would otherwise queue one full
	// walk per failed post on the CM resources).
	up, reconnected := fail, false
	if rec.Reconnect && fail >= t.recQP[qi].retryAt {
		delay := rec.Backoff.Base
		for a := 0; a < rec.MaxAttempts; a++ {
			at, err := t.pool[qi].Reconnect(up)
			if err == nil {
				up, reconnected = at, true
				break
			}
			t.recStats.ReconnectFailures++
			up = at + delay
			delay = rec.Backoff.Next(delay)
		}
		if reconnected {
			t.recStats.Reconnects++
			t.recQP[qi].reconnected = true
			t.recQP[qi].backAt = up
		} else {
			t.recStats.GiveUps++
			t.recQP[qi].retryAt = up
		}
	} else if rec.Reconnect {
		t.recStats.GiveUps++
	}

	// Replay the captured WR on its connection's current QP: a survivor
	// when remapped, the reconnected member otherwise.
	e := &entries[0]
	conn := int(e.WR.ID>>32) - 1
	target, at := t.conns[conn].qp, fail
	if target == qi {
		if !reconnected {
			// Nowhere to replay: deliver the original failure.
			return t.deliver(failed)
		}
		at = up
	}
	comp, err := t.pool[target].PostReplay(at, &e.WR, e.Applied)
	t.recStats.Replayed++
	if err != nil && !errors.Is(err, verbs.ErrQPError) {
		return Delivery{}, err
	}
	if err != nil {
		// The replay failed too (the survivor died under us, or the
		// reconnected member broke again). Its capture in the target's log
		// is dropped — this WR is delivered now, with the replay's
		// authoritative error status — and the target's next post will open
		// its own episode.
		t.recStats.ReplayFailures++
		t.pool[target].TakeReplayLog()
	}
	del, derr := t.deliver(comp)
	if derr != nil {
		return Delivery{}, derr
	}
	if del.Completion.Status == verbs.StatusOK {
		t.ttr.Observe(del.Completion.Done - fail)
		if t.ttrReg != nil {
			t.ttrReg.Observe(del.Completion.Done - fail)
		}
	}
	return del, nil
}
