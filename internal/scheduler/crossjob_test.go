package scheduler

import "testing"

func drainOrder(t *testing.T, q *CrossJobQueue) []string {
	t.Helper()
	var out []string
	for {
		tk, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, tk.ID)
	}
}

func TestCrossJobQueuePriorityThenFIFO(t *testing.T) {
	q := NewCrossJobQueue(8, 0)
	q.Push("low-1", "a", 5)
	q.Push("hi-1", "a", 1)
	q.Push("low-2", "a", 5)
	q.Push("hi-2", "a", 1)
	got := drainOrder(t, q)
	want := []string{"hi-1", "hi-2", "low-1", "low-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestCrossJobQueueCapacitySheds(t *testing.T) {
	q := NewCrossJobQueue(2, 0)
	if !q.Push("a", "t", 0) || !q.Push("b", "t", 0) {
		t.Fatal("pushes within capacity rejected")
	}
	if q.Push("c", "t", 0) {
		t.Fatal("push beyond capacity accepted")
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if !q.Push("c", "t", 0) {
		t.Fatal("push after pop rejected")
	}
}

// TestCrossJobQueueAgingPreventsStarvation pins the starvation-freedom
// guarantee: a single low-priority job must be served after a bounded number
// of pops even when a high-priority job is re-submitted after every pop.
func TestCrossJobQueueAgingPreventsStarvation(t *testing.T) {
	q := NewCrossJobQueue(16, 2) // one priority level per 2 passed-over pops
	q.Push("starved", "slow", 9)
	served := -1
	for i := 0; i < 64; i++ {
		q.Push("urgent", "fast", 0)
		tk, ok := q.Pop()
		if !ok {
			t.Fatal("pop on non-empty queue failed")
		}
		if tk.ID == "starved" {
			served = i
			break
		}
	}
	// Priority gap 9 at one level per 2 pops: served at pop 18.
	if served < 0 {
		t.Fatal("low-priority job starved for 64 pops")
	}
	if served != 18 {
		t.Fatalf("starved job served at pop %d, want 18 (deterministic aging)", served)
	}

	// Without aging it starves forever (bounded check).
	q2 := NewCrossJobQueue(16, 0)
	q2.Push("starved", "slow", 9)
	for i := 0; i < 64; i++ {
		q2.Push("urgent", "fast", 0)
		tk, _ := q2.Pop()
		if tk.ID == "starved" {
			t.Fatalf("without aging, starved job served at pop %d", i)
		}
	}
}

// TestCrossJobQueueTenantFairness pins least-recently-served interleaving:
// at equal priority, two tenants alternate instead of draining FIFO.
func TestCrossJobQueueTenantFairness(t *testing.T) {
	q := NewCrossJobQueue(8, 0)
	q.Push("a1", "a", 5)
	q.Push("a2", "a", 5)
	q.Push("a3", "a", 5)
	q.Push("b1", "b", 5)
	q.Push("b2", "b", 5)
	got := drainOrder(t, q)
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestCrossJobQueueRemove(t *testing.T) {
	q := NewCrossJobQueue(8, 0)
	q.Push("a", "t", 1)
	q.Push("b", "t", 2)
	if !q.Remove("b") {
		t.Fatal("remove of queued job failed")
	}
	if q.Remove("b") {
		t.Fatal("second remove succeeded")
	}
	if got := drainOrder(t, q); len(got) != 1 || got[0] != "a" {
		t.Fatalf("after remove, drain = %v", got)
	}
}
