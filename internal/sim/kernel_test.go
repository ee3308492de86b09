package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// buildClients constructs n deterministic clients over a per-group resource
// map: client i belongs to group i%groups, hammers that group's resource, and
// carries a footprint of two machines private to the group ({2g, 2g+1}).
func buildClients(n, groups int) (clients []*Client, feet [][]int) {
	res := make([]*Resource, groups)
	for g := range res {
		res[g] = NewResource("eu")
	}
	for i := 0; i < n; i++ {
		g := i % groups
		r := res[g]
		rng := rand.New(rand.NewSource(int64(100 + i)))
		clients = append(clients, &Client{
			PostCost: Duration(30 + 10*(i%5)),
			Window:   1 + i%4,
			Op: func(post Time) Time {
				return r.Delay(post, Duration(100+rng.Intn(400)))
			},
		})
		feet = append(feet, []int{2 * g, 2*g + 1})
	}
	return clients, feet
}

// runKernel builds fresh clients, registers them with their footprints and
// runs at the given worker count.
func runKernel(t *testing.T, workers, n, groups int, record bool) Result {
	t.Helper()
	clients, feet := buildClients(n, groups)
	k := NewKernel(workers)
	for i, c := range clients {
		c.RecordLatencies = record
		k.Add(c, feet[i]...)
	}
	return k.Run(Millisecond)
}

// TestKernelMatchesRunClosedLoop: with every client in one shard, the kernel
// must reproduce the classic single-heap loop bit for bit — same stats, same
// dispatch sequence.
func TestKernelMatchesRunClosedLoop(t *testing.T) {
	build := func() []*Client {
		r := NewResource("eu")
		rng := rand.New(rand.NewSource(7))
		op := func(post Time) Time {
			return r.Delay(post, Duration(100+rng.Intn(100)))
		}
		return []*Client{
			{Op: op, PostCost: 30, Window: 8, RecordLatencies: true},
			{Op: op, PostCost: 50, Window: 2, RecordLatencies: true},
			{Op: op, PostCost: 70, Window: 4, RecordLatencies: true},
		}
	}
	want := RunClosedLoop(build(), Millisecond)

	k := NewKernel(4)
	for _, c := range build() {
		k.Add(c, 0, 1) // shared machines: one shard
	}
	got := k.Run(Millisecond)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("kernel result diverged from RunClosedLoop:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestKernelDispatchOrderMatchesLoop: ops log their dispatch sequence; a
// single-shard kernel must replay the classic loop's exact order.
func TestKernelDispatchOrderMatchesLoop(t *testing.T) {
	type ev struct {
		client int
		at     Time
	}
	build := func(log *[]ev) []*Client {
		var clients []*Client
		for i := 0; i < 5; i++ {
			i := i
			clients = append(clients, &Client{
				PostCost: Duration(40 + 5*i),
				Window:   1 + i%3,
				Op: func(post Time) Time {
					*log = append(*log, ev{i, post})
					return post + Duration(300+50*i)
				},
			})
		}
		return clients
	}
	var want, got []ev
	RunClosedLoop(build(&want), 100*Microsecond)
	k := NewKernel(2)
	for _, c := range build(&got) {
		k.Add(c, 0)
	}
	k.Run(100 * Microsecond)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("dispatch order diverged: loop %d events, kernel %d events", len(want), len(got))
	}
	if len(want) == 0 {
		t.Fatal("no events dispatched")
	}
}

// TestKernelWorkerCountInvariance: disjoint footprint groups must produce
// identical results (including recorded latency distributions) at every
// worker count.
func TestKernelWorkerCountInvariance(t *testing.T) {
	want := runKernel(t, 1, 24, 6, true)
	if want.Completed == 0 {
		t.Fatal("no ops completed")
	}
	for _, workers := range []int{2, 4, 8, 64} {
		got := runKernel(t, workers, 24, 6, true)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from serial run", workers)
		}
	}
}

// TestKernelPartition checks the union-find: overlapping footprints merge,
// disjoint ones stay apart, shards are ordered by first-registered client.
func TestKernelPartition(t *testing.T) {
	k := NewKernel(1)
	add := func(machines ...int) {
		k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, machines...)
	}
	add(0, 1) // shard A
	add(4, 5) // shard B
	add(2, 3) // shard C ...
	add(1, 2) // ... no: bridges A and C
	shards := k.partition()
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	// Shard order follows first-registered client: {0,2,3} then {1}.
	if got := shards[0].idx; !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("shard 0 clients %v, want [0 2 3]", got)
	}
	if got := shards[1].idx; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("shard 1 clients %v, want [1]", got)
	}
}

// TestKernelGlobalClientCollapses: one footprint-less client forces a single
// shard containing everyone.
func TestKernelGlobalClientCollapses(t *testing.T) {
	k := NewKernel(8)
	k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, 0)
	k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}) // global
	k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, 9)
	shards := k.partition()
	if len(shards) != 1 || len(shards[0].clients) != 3 {
		t.Fatalf("global client should collapse to 1 shard of 3, got %d shards", len(shards))
	}
}

// TestKernelValidation: config panics must fire exactly as in the classic
// loop, plus the footprint-specific ones.
func TestKernelValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("negative machine", func() {
		NewKernel(1).Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 1}, -1)
	})
	expectPanic("zero window", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: fixedOp(1), PostCost: 1, Window: 0}, 0)
		k.Run(Millisecond)
	})
	expectPanic("zero post cost", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: fixedOp(1), PostCost: 0, Window: 1}, 0)
		k.Run(Millisecond)
	})
	expectPanic("bad horizon", func() {
		NewKernel(1).Run(0)
	})
	expectPanic("time travel", func() {
		k := NewKernel(1)
		k.Add(&Client{Op: func(post Time) Time { return post - 1 }, PostCost: 1, Window: 1}, 0)
		k.Run(Millisecond)
	})
}

// TestKernelShardPanicPropagates: an op panic inside a parallel shard must
// surface in Run's caller, and the first-registered shard's panic wins so the
// report is deterministic.
func TestKernelShardPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected shard panic to propagate")
		}
		if r != "boom-0" {
			t.Fatalf("got panic %v, want boom-0 (first shard wins)", r)
		}
	}()
	k := NewKernel(4)
	for g := 0; g < 4; g++ {
		g := g
		k.Add(&Client{
			PostCost: 10, Window: 1,
			Op: func(post Time) Time {
				if post > 10*Microsecond {
					panic("boom-" + string(rune('0'+g)))
				}
				return post + 100
			},
		}, g)
	}
	k.Run(Millisecond)
}

// TestKernelWorkersClamp: worker counts below 1 clamp to serial.
func TestKernelWorkersClamp(t *testing.T) {
	if got := NewKernel(0).Workers(); got != 1 {
		t.Fatalf("workers=%d, want 1", got)
	}
	if got := NewKernel(-3).Workers(); got != 1 {
		t.Fatalf("workers=%d, want 1", got)
	}
}

// TestKernelMaxOps: MaxOps gates per client exactly as in the classic loop,
// across shards.
func TestKernelMaxOps(t *testing.T) {
	k := NewKernel(2)
	a := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 7}
	b := &Client{Op: fixedOp(10), PostCost: 10, Window: 1, MaxOps: 3}
	k.Add(a, 0)
	k.Add(b, 1)
	res := k.Run(Second)
	if res.Clients[0].Posted != 7 || res.Clients[1].Posted != 3 {
		t.Fatalf("posted %d/%d, want 7/3", res.Clients[0].Posted, res.Clients[1].Posted)
	}
	if res.Completed != 10 {
		t.Fatalf("completed=%d, want 10", res.Completed)
	}
}
