package sim

// Typed scheduler queues for the sharded event kernel. All three are
// hand-rolled binary heaps: the generic container/heap funnels every Push and
// Pop through interface{}, which boxes each completion Time onto the heap —
// one allocation per posted operation. Once the op pipeline allocated
// nothing, that boxing plus the Fix churn of one global client heap was the
// dominant scheduler cost; these queues remove both (the host-cost benchmark
// in perfbench/ reports the sim layer's share).

// timeHeap is a typed min-heap of completion times: one per client, holding
// the client's outstanding-operation window. Zero value is an empty heap.
// push and pop never allocate beyond amortized slice growth, which the
// kernel retains across runs via reset.
type timeHeap []Time

// push adds a completion time.
func (h *timeHeap) push(t Time) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest completion time.
func (h *timeHeap) pop() Time {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// keyLess orders dispatch keys: (virtual time, original client index). Client
// indices are unique, so the order is total — exactly the dispatch order of
// the original single-heap loop, which the goldens pin.
func keyLess(t1 Time, i1 int, t2 Time, i2 int) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return i1 < i2
}

// clientQueue is one machine's event queue: a typed min-heap of that
// machine's clients ordered by (nextAction, original index). Clients are
// loaded once at run start; the scheduler only ever reorders the root (after
// a dispatch) or evicts it (horizon or MaxOps reached), so there is no push
// path at all — the panic("unused") Push/Pop stubs of the old
// container/heap clientHeap are gone with the interface.
type clientQueue struct {
	cs  []*Client
	idx []int
}

func (q *clientQueue) len() int { return len(q.cs) }

func (q *clientQueue) less(i, j int) bool {
	return keyLess(q.cs[i].nextAction(), q.idx[i], q.cs[j].nextAction(), q.idx[j])
}

func (q *clientQueue) swap(i, j int) {
	q.cs[i], q.cs[j] = q.cs[j], q.cs[i]
	q.idx[i], q.idx[j] = q.idx[j], q.idx[i]
}

func (q *clientQueue) down(i int) {
	n := len(q.cs)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

// init establishes the heap order over the loaded clients.
func (q *clientQueue) init() {
	for i := len(q.cs)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// fixTop restores heap order after the root's next action advanced.
func (q *clientQueue) fixTop() { q.down(0) }

// popTop evicts the root (a client past the horizon or its MaxOps budget).
func (q *clientQueue) popTop() {
	last := len(q.cs) - 1
	q.swap(0, last)
	q.cs = q.cs[:last]
	q.idx = q.idx[:last]
	if last > 0 {
		q.down(0)
	}
}

// frontKey reports the root's dispatch key.
func (q *clientQueue) frontKey() (Time, int) {
	return q.cs[0].nextAction(), q.idx[0]
}

// mergeHeap is the deterministic fabric-boundary merge of one shard: a typed
// min-heap over the shard's per-machine queues, keyed by each queue's front
// dispatch key. The shard always dispatches the globally earliest
// (time, client index) pair, so the merged order is byte-identical to the
// old single-heap loop — but each machine advances on its own small queue,
// and a machine whose front stays earlier than every other machine's keeps
// dispatching without touching the merge at all (see shard.run).
type mergeHeap struct {
	mqs []*clientQueue
}

func (m *mergeHeap) len() int { return len(m.mqs) }

func (m *mergeHeap) less(i, j int) bool {
	ti, ii := m.mqs[i].frontKey()
	tj, ij := m.mqs[j].frontKey()
	return keyLess(ti, ii, tj, ij)
}

func (m *mergeHeap) down(i int) {
	n := len(m.mqs)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && m.less(r, l) {
			c = r
		}
		if !m.less(c, i) {
			return
		}
		m.mqs[i], m.mqs[c] = m.mqs[c], m.mqs[i]
		i = c
	}
}

func (m *mergeHeap) init() {
	for i := len(m.mqs)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// top returns the machine queue holding the globally earliest client.
func (m *mergeHeap) top() *clientQueue { return m.mqs[0] }

// fixTop restores order after the top queue's front changed.
func (m *mergeHeap) fixTop() { m.down(0) }

// popTop removes the top queue (its last client was evicted).
func (m *mergeHeap) popTop() {
	last := len(m.mqs) - 1
	m.mqs[0] = m.mqs[last]
	m.mqs = m.mqs[:last]
	if last > 0 {
		m.down(0)
	}
}

// secondKey reports the earliest dispatch key among the non-top queues —
// the bound up to which the top machine may advance independently. With a
// single machine queue there is no bound: (MaxTime, maxInt) compares after
// every real key because client times stay below the horizon.
func (m *mergeHeap) secondKey() (Time, int) {
	const maxInt = int(^uint(0) >> 1)
	switch len(m.mqs) {
	case 1:
		return MaxTime, maxInt
	case 2:
		return m.mqs[1].frontKey()
	default:
		t1, i1 := m.mqs[1].frontKey()
		t2, i2 := m.mqs[2].frontKey()
		if keyLess(t2, i2, t1, i1) {
			return t2, i2
		}
		return t1, i1
	}
}
