package cluster

import (
	"testing"

	"rdmasem/internal/sim"
	"rdmasem/internal/telemetry"
)

func testCluster(t *testing.T, machines int, tl *telemetry.Timeline) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Machines = machines
	cfg.Timeline = tl
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestEngineTimelinePin: trace spans carry a global record sequence, so a
// cluster with a Timeline attached must force serial dispatch; without one
// the engine keeps the requested width.
func TestEngineTimelinePin(t *testing.T) {
	if got := testCluster(t, 2, nil).NewEngine(4).Workers(); got != 4 {
		t.Fatalf("workers=%d, want 4", got)
	}
	cl := testCluster(t, 2, telemetry.NewTimeline(1024))
	if got := cl.NewEngine(8).Workers(); got != 1 {
		t.Fatalf("timeline-attached engine runs %d workers, want 1", got)
	}
}

// TestEngineRejectsForeignMachine: footprints must name machines of this
// engine's own cluster.
func TestEngineRejectsForeignMachine(t *testing.T) {
	cl := testCluster(t, 2, nil)
	other := testCluster(t, 2, nil)
	c := &sim.Client{Op: func(post sim.Time) sim.Time { return post + 1 }, PostCost: 1, Window: 1}
	for name, m := range map[string]*Machine{"foreign": other.Machine(1), "nil": nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s machine: expected panic", name)
				}
			}()
			cl.NewEngine(1).Add(c, m)
		}()
	}
}

// TestEngineRunsClients: a smoke run over two disjoint machines.
func TestEngineRunsClients(t *testing.T) {
	cl := testCluster(t, 4, nil)
	eng := cl.NewEngine(2)
	eng.Add(&sim.Client{Op: func(post sim.Time) sim.Time { return post + 500 }, PostCost: 100, Window: 1},
		cl.Machine(0), cl.Machine(1))
	eng.Add(&sim.Client{Op: func(post sim.Time) sim.Time { return post + 500 }, PostCost: 100, Window: 1},
		cl.Machine(2), cl.Machine(3))
	res := eng.Run(sim.Millisecond)
	if res.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if res.Clients[0].Completed != res.Clients[1].Completed {
		t.Fatalf("identical disjoint clients diverged: %d vs %d",
			res.Clients[0].Completed, res.Clients[1].Completed)
	}
}
