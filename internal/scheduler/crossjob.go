package scheduler

// This file extends scheduling from intra-job branch ordering (Alg. 1) to
// cross-job admission: the service layer's bounded queue of admitted jobs.
// Where BAS picks the next stage of one MDF, CrossJobQueue picks the next
// job of many tenants under three rules:
//
//  1. explicit priority first (smaller = more urgent), like the hint of
//     Alg. 1;
//  2. priority aging: a job passed over AgeEvery times gains one effective
//     priority level, so a starved low-priority tenant eventually runs no
//     matter how many urgent jobs keep arriving;
//  3. fairness among equals: ties break toward the tenant served least
//     recently, then FIFO, so two tenants at the same priority interleave
//     instead of one monopolising the runners.
//
// The queue is deliberately free of clocks and randomness — aging is
// measured in pop decisions, not seconds — so a fixed submission sequence
// always drains in the same order, which is what makes the service-level
// determinism tests possible.

// JobTicket is one admitted job waiting in the cross-job queue.
type JobTicket struct {
	// ID identifies the job.
	ID string
	// Tenant is the submitting tenant; fairness ties break across tenants.
	Tenant string
	// Priority is the submitted priority; smaller is more urgent.
	Priority int

	// seq is the FIFO tie-breaker; passed counts pop decisions that chose
	// another job, driving the aging rule.
	seq    int64
	passed int
}

// CrossJobQueue is a bounded multi-tenant admission queue with priority
// aging. It is not safe for concurrent use; the service serialises access
// under its own lock.
type CrossJobQueue struct {
	capacity int
	ageEvery int
	seq      int64
	serveSeq int64
	items    []*JobTicket
	// lastServed maps a tenant to the serve sequence of its most recent
	// pop, for least-recently-served tie-breaking. A tenant never served
	// ranks oldest.
	lastServed map[string]int64
}

// NewCrossJobQueue returns a queue holding at most capacity jobs (>= 1) that
// improves a passed-over job's effective priority every ageEvery pops;
// ageEvery <= 0 disables aging.
func NewCrossJobQueue(capacity, ageEvery int) *CrossJobQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &CrossJobQueue{
		capacity:   capacity,
		ageEvery:   ageEvery,
		lastServed: make(map[string]int64),
	}
}

// Len returns the number of queued jobs.
func (q *CrossJobQueue) Len() int { return len(q.items) }

// Push admits a job; it reports false when the queue is full (the caller
// sheds load with 429 + Retry-After).
func (q *CrossJobQueue) Push(id, tenant string, priority int) bool {
	if len(q.items) >= q.capacity {
		return false
	}
	q.seq++
	q.items = append(q.items, &JobTicket{ID: id, Tenant: tenant, Priority: priority, seq: q.seq})
	return true
}

// effective returns the ticket's aged priority.
func (q *CrossJobQueue) effective(t *JobTicket) int {
	if q.ageEvery <= 0 {
		return t.Priority
	}
	return t.Priority - t.passed/q.ageEvery
}

// better reports whether a should be served before b.
func (q *CrossJobQueue) better(a, b *JobTicket) bool {
	ea, eb := q.effective(a), q.effective(b)
	if ea != eb {
		return ea < eb
	}
	sa, sb := q.lastServed[a.Tenant], q.lastServed[b.Tenant]
	if sa != sb {
		return sa < sb
	}
	return a.seq < b.seq
}

// Pop removes and returns the next job to run; ok is false on an empty
// queue. Every job left behind counts one more passed-over decision toward
// its aging.
func (q *CrossJobQueue) Pop() (JobTicket, bool) {
	if len(q.items) == 0 {
		return JobTicket{}, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.better(q.items[i], q.items[best]) {
			best = i
		}
	}
	chosen := q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	for _, t := range q.items {
		t.passed++
	}
	q.serveSeq++
	q.lastServed[chosen.Tenant] = q.serveSeq
	return *chosen, true
}

// Remove deletes a queued job by ID (client cancellation); it reports
// whether the job was found.
func (q *CrossJobQueue) Remove(id string) bool {
	for i, t := range q.items {
		if t.ID == id {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}
