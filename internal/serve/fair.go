package serve

import (
	"errors"
	"sync"
)

// Queue-rejection sentinels, mapped by handleSubmit onto 429 (full: back
// off and retry the idempotent submission) and 503 (closed: this process
// is draining, go elsewhere).
var (
	errQueueFull   = errors.New("serve: launch queue full")
	errQueueClosed = errors.New("serve: queue closed")
)

// flowKey names one scheduling flow: a tenant plus the sweep the work
// belongs to. Sweep "" is the tenant's singleton-runs flow — direct
// /v1/runs submissions share one flow per tenant.
type flowKey struct {
	tenant string
	sweep  string
}

// flow is one FIFO lane of queued jobs with a weighted-round-robin weight.
type flow struct {
	key    flowKey
	weight int
	credit int // picks remaining in the current WRR round
	jobs   []*Job
}

// tenantQ groups a tenant's flows in rotation order.
type tenantQ struct {
	name  string
	flows []*flow
	idx   int // WRR cursor into flows
}

// fairQueue replaces the dispatcher's plain FIFO channel with two-level
// fair scheduling:
//
//   - Across tenants: strict round-robin. Each dequeue serves the next
//     tenant with queued work, so one tenant's thousand-cell sweep and
//     another tenant's two-cell sweep alternate cell for cell — the big
//     sweep cannot starve the small one (Section "fair-share" of
//     DESIGN.md §15).
//   - Within a tenant: weighted round-robin across its flows (one flow per
//     active sweep, plus one for singleton runs). A flow's weight is its
//     sweep's priority: a priority-3 sweep gets three dequeues for every
//     one of a priority-1 sweep in the same tenant.
//
// Capacity bounds only the singleton flows — the same load-shedding
// contract /v1/runs always had. Sweep flows are bounded upstream by the
// expansion cap and per-tenant sweep rate limits, and their cells must all
// enqueue or none (a half-admitted sweep would deadlock its progress
// accounting), so they bypass the depth check.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int // bound on queued singleton jobs
	singles  int // queued singleton jobs right now
	size     int // queued jobs total

	tenants  []*tenantQ
	tidx     int // strict-RR cursor into tenants
	byTenant map[string]*tenantQ
	byKey    map[flowKey]*flow
	closed   bool
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{
		capacity: capacity,
		byTenant: make(map[string]*tenantQ),
		byKey:    make(map[flowKey]*flow),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues j on its flow (Job.flow), creating the flow with the given
// weight if absent. Singleton flows respect the queue capacity
// (errQueueFull); a closed queue rejects everything (errQueueClosed).
func (q *fairQueue) Push(j *Job, weight int) error {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	if j.flow.sweep == "" {
		if q.singles >= q.capacity {
			return errQueueFull
		}
		q.singles++
	}
	f := q.byKey[j.flow]
	if f == nil {
		f = &flow{key: j.flow, weight: weight, credit: weight}
		q.byKey[j.flow] = f
		t := q.byTenant[j.flow.tenant]
		if t == nil {
			t = &tenantQ{name: j.flow.tenant}
			q.byTenant[j.flow.tenant] = t
			q.tenants = append(q.tenants, t)
		}
		t.flows = append(t.flows, f)
	}
	f.jobs = append(f.jobs, j)
	q.size++
	q.cond.Signal()
	return nil
}

// popLocked removes and returns the next job in fair order, or nil if the
// queue is empty. Caller holds q.mu.
func (q *fairQueue) popLocked() *Job {
	if q.size == 0 {
		return nil
	}
	// Strict RR across tenants: resume at the cursor, take the first
	// tenant with queued work, and leave the cursor past it.
	for range q.tenants {
		t := q.tenants[q.tidx%len(q.tenants)]
		j := t.popLocked()
		if j == nil {
			q.tidx = (q.tidx + 1) % len(q.tenants)
			continue
		}
		q.tidx = (q.tidx + 1) % len(q.tenants)
		q.size--
		if j.flow.sweep == "" {
			q.singles--
		}
		q.gcLocked(t)
		return j
	}
	return nil
}

// popLocked dequeues the tenant's next job by weighted round-robin: the
// cursor flow keeps the turn while it has credit and work; exhausted
// credits refill a full round at a time.
func (t *tenantQ) popLocked() *Job {
	if len(t.flows) == 0 {
		return nil
	}
	// Two passes: the first may find every non-empty flow out of credit,
	// in which case refill and take the second.
	for pass := 0; pass < 2; pass++ {
		for range t.flows {
			f := t.flows[t.idx%len(t.flows)]
			if len(f.jobs) == 0 || f.credit == 0 {
				t.idx = (t.idx + 1) % len(t.flows)
				continue
			}
			j := f.jobs[0]
			f.jobs = f.jobs[1:]
			f.credit--
			if f.credit == 0 {
				t.idx = (t.idx + 1) % len(t.flows)
			}
			return j
		}
		for _, f := range t.flows {
			f.credit = f.weight
		}
	}
	return nil
}

// gcLocked drops t's drained flows (and t itself when its last flow goes),
// so finished sweeps do not accumulate in the rotation.
func (q *fairQueue) gcLocked(t *tenantQ) {
	flows := t.flows[:0]
	for _, f := range t.flows {
		if len(f.jobs) == 0 {
			delete(q.byKey, f.key)
			continue
		}
		flows = append(flows, f)
	}
	t.flows = flows
	if t.idx >= len(t.flows) {
		t.idx = 0
	}
	if len(t.flows) > 0 {
		return
	}
	delete(q.byTenant, t.name)
	tenants := q.tenants[:0]
	for _, other := range q.tenants {
		if other != t {
			tenants = append(tenants, other)
		}
	}
	q.tenants = tenants
	if len(q.tenants) == 0 {
		q.tidx = 0
	} else {
		q.tidx %= len(q.tenants)
	}
}

// PopBatch blocks until at least one job is queued (or the queue is closed
// and empty — ok=false, the dispatcher's exit signal), then greedily
// dequeues up to max jobs in fair order without further blocking.
func (q *fairQueue) PopBatch(max int) ([]*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	var batch []*Job
	for len(batch) < max {
		j := q.popLocked()
		if j == nil {
			break
		}
		batch = append(batch, j)
	}
	return batch, true
}

// Remove unqueues a specific job (sweep cancellation releasing its queued
// cells); reports whether the job was still queued here.
func (q *fairQueue) Remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	f := q.byKey[j.flow]
	if f == nil {
		return false
	}
	for i, queued := range f.jobs {
		if queued == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			q.size--
			if j.flow.sweep == "" {
				q.singles--
			}
			if t := q.byTenant[j.flow.tenant]; t != nil {
				q.gcLocked(t)
			}
			return true
		}
	}
	return false
}

// Close stops accepting pushes; PopBatch drains what is queued and then
// reports done.
func (q *fairQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Len returns the total queued jobs.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// SinglesSaturated reports whether the singleton-flow capacity is
// exhausted (the /readyz saturation signal).
func (q *fairQueue) SinglesSaturated() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.singles >= q.capacity
}

// Depths snapshots per-tenant queued-job counts for the fair-share depth
// gauges.
func (q *fairQueue) Depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.tenants))
	for _, t := range q.tenants {
		n := 0
		for _, f := range t.flows {
			n += len(f.jobs)
		}
		out[t.name] = n
	}
	return out
}
