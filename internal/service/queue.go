package service

import (
	"sort"
	"sync"
	"time"
)

// admitQueue is the scheduler's admission queue: the service-side half of
// scheduling (internal/sched gives the runner LPT scheduling inside one
// sweep; this gives the serving tier priority, deadline, and tenant
// fairness across sweeps). Dequeue follows a policy:
//
//   - Priority: higher Request.Priority dequeues first.
//   - Aging: a job's effective priority rises by one for every AgingStep it
//     has waited, so a flood of high-priority work cannot starve
//     low-priority tenants — any queued job eventually outranks fresh
//     arrivals. Aging is quantised to whole steps so that jobs submitted
//     within the same step still tie (and fall through to fairness) instead
//     of racing on microsecond arrival order.
//   - Deadline: among equal effective priorities, earliest deadline first;
//     jobs without a deadline sort after all deadlined work.
//   - Tenant fairness: remaining ties go to the tenant served least
//     recently, so two tenants flooding unevenly still alternate; within a
//     tenant, submission order (seq) wins — single-tenant workloads keep
//     the old FIFO behaviour exactly.
//
// popBatch additionally coalesces admission: every queued job sharing the
// dequeued leader's cache key (any tenant — the result is identical by
// determinism) leaves the queue in the same batch, and the scheduler runs
// one simulation for all of them.
//
// Admission takes two steps: reserve claims a place, counted in depth and
// capacity, and push fills it for popBatch to find. The scheduler
// publishes the job's queued state in between.
//
// All methods are safe for concurrent use. Blocking happens only in
// popBatch; reserve is non-blocking admission control.
type admitQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	aging    time.Duration
	closed   bool
	// size counts the admitted jobs not yet popped, reserved counts those
	// of them not yet pushed, and maxSize is size's high-water mark.
	size, reserved, maxSize int
	tenants                 map[string]*tenantQueue
	// serveSeq orders pops; each tenant's lastServed is the serveSeq of its
	// most recent dequeue, and fairness prefers the smallest.
	serveSeq uint64
}

type tenantQueue struct {
	jobs       []*job // FIFO by seq
	reserved   int    // places reserved and not yet pushed
	lastServed uint64
}

func newAdmitQueue(capacity int, aging time.Duration) *admitQueue {
	q := &admitQueue{
		capacity: capacity,
		aging:    aging,
		tenants:  map[string]*tenantQueue{},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// depth returns the queue's length and its high-water mark.
func (q *admitQueue) depth() (n, max int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size, q.maxSize
}

func (q *admitQueue) Cap() int { return q.capacity }

// TenantDepths snapshots the queued-job count per tenant (the "" tenant is
// reported as-is; the HTTP layer admits it for untenanted submissions).
func (q *admitQueue) TenantDepths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.tenants))
	for name, tq := range q.tenants {
		if n := len(tq.jobs) + tq.reserved; n > 0 {
			out[name] = n
		}
	}
	return out
}

// TenantDepth returns one tenant's queued-job count; the quota path checks
// it against MaxQueued at admission.
func (q *admitQueue) TenantDepth(name string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if tq := q.tenants[name]; tq != nil {
		return len(tq.jobs) + tq.reserved
	}
	return 0
}

// QueuedJobInfo is one queued job's row in the admin state.
type QueuedJobInfo struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Tenant     string `json:"tenant,omitempty"`
	Priority   int    `json:"priority"`
	// EffectivePriority is the aged priority the next dequeue would use.
	EffectivePriority int     `json:"effective_priority"`
	WaitedSeconds     float64 `json:"waited_seconds"`
}

// snapshot lists every queued job in submission order, with aged
// priorities as of now.
func (q *admitQueue) snapshot() []QueuedJobInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	var queued []*job
	for _, tq := range q.tenants {
		queued = append(queued, tq.jobs...)
	}
	sort.Slice(queued, func(a, b int) bool { return queued[a].seq < queued[b].seq })
	out := make([]QueuedJobInfo, 0, len(queued))
	for _, j := range queued {
		out = append(out, QueuedJobInfo{
			ID:                j.id,
			Experiment:        j.experiment,
			Tenant:            j.tenant,
			Priority:          j.priority,
			EffectivePriority: q.effPriority(j, now),
			WaitedSeconds:     now.Sub(j.created).Seconds(),
		})
	}
	return out
}

// reserve claims a place for one of tenant's jobs, reporting false when
// the queue is at capacity.
func (q *admitQueue) reserve(tenant string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size >= q.capacity {
		return false
	}
	tq := q.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		q.tenants[tenant] = tq
	}
	tq.reserved++
	q.reserved++
	q.size++
	q.maxSize = max(q.maxSize, q.size)
	return true
}

// push puts j into the place reserve claimed for it, where popBatch finds
// it, and returns the queue depth it leaves.
func (q *admitQueue) push(j *job) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	tq := q.tenants[j.tenant]
	tq.reserved--
	tq.jobs = append(tq.jobs, j)
	q.reserved--
	q.cond.Signal()
	return q.size
}

// close wakes all blocked workers; popBatch drains the remaining jobs,
// reserved ones included, and then reports done.
func (q *admitQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// effPriority is j's aged priority at now: the submitted priority plus one
// per whole AgingStep waited.
func (q *admitQueue) effPriority(j *job, now time.Time) int {
	if q.aging <= 0 {
		return j.priority
	}
	return j.priority + int(now.Sub(j.created)/q.aging)
}

// better reports whether a should dequeue before b under the policy order:
// aged priority, deadline, tenant fairness, submission order.
func (q *admitQueue) better(a, b *job, now time.Time) bool {
	ap, bp := q.effPriority(a, now), q.effPriority(b, now)
	if ap != bp {
		return ap > bp
	}
	ad, bd := a.deadline, b.deadline
	if !ad.IsZero() || !bd.IsZero() {
		if ad.IsZero() != bd.IsZero() {
			return !ad.IsZero() // deadlined work before open-ended work
		}
		if !ad.Equal(bd) {
			return ad.Before(bd)
		}
	}
	at, bt := q.tenants[a.tenant], q.tenants[b.tenant]
	if a.tenant != b.tenant && at.lastServed != bt.lastServed {
		return at.lastServed < bt.lastServed
	}
	return a.seq < b.seq
}

// popBatch blocks until a job is available (or the queue is closed and
// empty), selects the best job under the policy, and returns it together
// with every queued job sharing its cache key — identical submissions ride
// the leader's single simulation. The leader is batch[0]; followers follow
// in submission order. ok=false means closed and drained.
func (q *admitQueue) popBatch() (batch []*job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == q.reserved {
		if q.closed && q.size == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
	now := time.Now()
	var leader *job
	for _, tq := range q.tenants {
		// Within a tenant only the front of each aged-priority class can
		// win, but scanning all queued jobs keeps the policy exact; queue
		// capacity bounds the scan.
		for _, j := range tq.jobs {
			if leader == nil || q.better(j, leader, now) {
				leader = j
			}
		}
	}
	batch = append(batch, leader)
	for _, tq := range q.tenants {
		for _, j := range tq.jobs {
			if j != leader && j.cacheKey == leader.cacheKey {
				batch = append(batch, j)
			}
		}
	}
	// Followers complete in submission order for deterministic test
	// observation; the leader stays first.
	if len(batch) > 2 {
		rest := batch[1:]
		for i := 1; i < len(rest); i++ {
			for k := i; k > 0 && rest[k].seq < rest[k-1].seq; k-- {
				rest[k], rest[k-1] = rest[k-1], rest[k]
			}
		}
	}
	q.serveSeq++
	for _, j := range batch {
		tq := q.tenants[j.tenant]
		tq.lastServed = q.serveSeq
		for i, x := range tq.jobs {
			if x == j {
				tq.jobs = append(tq.jobs[:i], tq.jobs[i+1:]...)
				break
			}
		}
		q.size--
	}
	if q.closed && q.size == 0 {
		// Workers left waiting on a reserved place can now exit.
		q.cond.Broadcast()
	}
	return batch, true
}
