package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
	"rdmasem/internal/topo"
	"rdmasem/internal/txn"
	"rdmasem/internal/workload"
)

// txn-lossy: optimistic transactions of internal/txn over a fabric that
// drops 1% of segments. Eight split-phase clients on machines 1-7 run
// against one store on machine 0; each transaction reads and writes one
// swept key (hot with the point's probability) and one client-private key,
// taking CAS locks and appending to the redo log. Go-back-N retransmits and
// ACK timeouts run beside atomics and writes, and the telemetry registry is
// attached, so observability cost shows here and nowhere else.

// txnHotShares are the points: percent of transactions aimed at the hot keys.
var txnHotShares = []int{10, 90}

const (
	txnClients  = 8
	txnKeySpace = 1 << 12
	txnHotKeys  = 4
	txnValue    = 64
	txnKeys     = 1 << 13 // pre-generated swept keys per client, reused cyclically
	txnHorizon  = 50 * sim.Millisecond
	txnDrop     = 0.01
)

// txnClient is one split-phase client: it reads and stages in one Op call
// and commits in the next, so transactions overlap in virtual time.
type txnClient struct {
	c        *txn.Client
	keys     []uint64
	next     int
	private  uint64
	tx       *txn.Txn
	buf, val []byte
	failed   uint64 // layer calls that failed other than by conflict
}

type txnEnv struct {
	cl      *cluster.Cluster
	eng     *cluster.Engine
	store   *txn.Store
	clients []*txnClient
	latest  sim.Time
}

// genTxnKeys draws a client's swept keys: hot with probability pct percent,
// else uniform over the keys that are neither hot nor private.
func genTxnKeys(rng *rand.Rand, pct int) []uint64 {
	keys := make([]uint64, txnKeys)
	for i := range keys {
		if rng.Intn(100) < pct {
			keys[i] = uint64(rng.Intn(txnHotKeys))
		} else {
			keys[i] = uint64(txnHotKeys + rng.Intn(txnKeySpace-txnHotKeys-txnClients))
		}
	}
	return keys
}

func buildTxn(s *sweep, seed int64, pi, pct int) (*txnEnv, error) {
	tr := s.spans
	cfg := cluster.DefaultConfig()
	cfg.Faults = &fabric.FaultPlan{Seed: seed, Drop: txnDrop}
	cfg.Telemetry = telemetry.NewRegistry()
	sp := tr.begin(spanClusterNew)
	cl, err := cluster.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	env := &txnEnv{cl: cl, eng: cl.NewEngine(1)}
	sp = tr.begin(spanTxnSetup)
	env.store, err = txn.NewStore(cl.Machine(0), txn.Config{KeySpace: txnKeySpace, ValueSize: txnValue, MaxWrites: 2})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spanWorkloadGen)
	streams := make([][]uint64, txnClients)
	for i := range streams {
		streams[i] = genTxnKeys(rand.New(rand.NewSource(seed*1000+int64(pi*txnClients+i))), pct)
	}
	tr.end(sp)
	for i := 0; i < txnClients; i++ {
		m := cl.Machine(1 + i%7)
		sp := tr.begin(spanTxnSetup)
		c, err := txn.NewClient(i, m, topo.SocketID(i%2), env.store)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tc := &txnClient{
			c: c, keys: streams[i], private: uint64(txnKeySpace - txnClients + i),
			buf: make([]byte, txnValue), val: make([]byte, txnValue),
		}
		env.clients = append(env.clients, tc)
		env.eng.Add(&sim.Client{PostCost: 200, Window: 1, Op: env.op(tr, tc)}, m, cl.Machine(0))
	}
	return env, nil
}

// op runs the read phase of a new transaction, or commits the open one.
func (env *txnEnv) op(tr *tracer, tc *txnClient) sim.Op {
	return func(post sim.Time) sim.Time {
		sp := tr.begin(spanClosure)
		defer tr.end(sp)
		if tc.tx == nil {
			rsp := tr.begin(spanTxnRead)
			k := tc.keys[tc.next]
			tc.next = (tc.next + 1) % len(tc.keys)
			tx := tc.c.Begin(post)
			err := tc.readWrite(tx, k)
			if err == nil {
				err = tc.readWrite(tx, tc.private)
			}
			tr.end(rsp)
			if err != nil {
				tc.failed++
				return tx.Now()
			}
			tc.tx = tx
			return tx.Now()
		}
		csp := tr.begin(spanTxnCommit)
		tc.tx.AdvanceTo(post)
		done, err := tc.tx.Commit()
		tr.end(csp)
		tc.tx = nil
		if errors.Is(err, txn.ErrConflict) {
			tc.c.NoteRetry()
		} else if err != nil {
			tc.failed++
		}
		env.latest = sim.Max(env.latest, done)
		return done
	}
}

func (tc *txnClient) readWrite(tx *txn.Txn, key uint64) error {
	if err := tx.Get(key, tc.buf); err != nil {
		return err
	}
	workload.FillValue(tc.val, key^uint64(tc.next))
	return tx.Put(key, tc.val)
}

// checkVersions checks every entry for consistency and that the summed
// version advances, Σ version / 2, equal two writes per committed
// transaction.
func checkVersions(store *txn.Store, commits int64) error {
	var sum uint64
	for k := uint64(0); k < store.Config().KeySpace; k++ {
		v, _, ok, err := store.Entry(k)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("txn: entry %d is inconsistent (version %d)", k, v)
		}
		sum += v
	}
	if sum/2 != uint64(2*commits) {
		return fmt.Errorf("txn: versions advanced %d times, %d commits of two writes each", sum/2, commits)
	}
	return nil
}

// runTxnLossy runs every hot-share point once.
func runTxnLossy(s *sweep, seed int64) error {
	tr := s.spans
	for pi, pct := range txnHotShares {
		label := fmt.Sprintf("txn-lossy/%d", pi)
		root := tr.startPoint(pi)
		t0 := time.Now()
		env, err := buildTxn(s, seed, pi, pct)
		s.setup += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", label, err)
		}
		tm := s.timedStart()
		sp := tr.begin(spanSimRun)
		res := env.eng.Run(txnHorizon)
		tr.end(sp)
		sp = tr.begin(spanTelemetryFold)
		env.cl.FoldTelemetry()
		tr.end(sp)
		s.timedStop(tm)
		tr.end(root)

		if err := env.check(s, label, res, txnHorizon); err != nil {
			return err
		}
	}
	return nil
}

// check folds the point's virtual results into the sweep and runs its
// correctness and conservation checks.
func (env *txnEnv) check(s *sweep, label string, res sim.Result, horizon sim.Time) error {
	s.recordRun(label, res)
	var commits int64
	for i, tc := range env.clients {
		st := tc.c.Stats()
		s.record(fmt.Sprintf("%s client %d", label, i), st)
		commits += st.Commits
		s.virt.commits += st.Commits
		s.virt.aborts += st.Aborts
		s.virt.failedWRs += tc.failed
	}
	s.record(label+" store", env.store.Fingerprint())
	if err := s.finishCluster(label, env.cl, sim.Max(horizon, env.latest)); err != nil {
		return err
	}
	if err := checkVersions(env.store, commits); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return nil
}
