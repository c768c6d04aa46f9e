package mdf

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counted returns a memo whose compute sums its input plus the key and counts
// its calls per key. It yields first, so that a sibling asking meanwhile
// would compute the value too if the memo let it.
func counted() (*Memo[int, int, int], *[4]atomic.Int32) {
	var calls [4]atomic.Int32
	return NewMemo(func(k int, in []int) int {
		calls[k].Add(1)
		for i := 0; i < 20; i++ {
			runtime.Gosched()
		}
		s := k
		for _, v := range in {
			s += v
		}
		return s
	}), &calls
}

// TestMemoComputesOncePerKey runs 16 siblings per key on goroutines over one
// memo and one input, as the engine's pool runs sibling branches: each key's
// value is computed once, every sibling reads it, and the memo holds one
// entry per key.
func TestMemoComputesOncePerKey(t *testing.T) {
	m, calls := counted()
	in := []int{1, 2, 3}
	got := make([]int, 4*16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Get(i%4, in)
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != 6+i%4 {
			t.Fatalf("sibling %d read %d, want %d", i, v, 6+i%4)
		}
	}
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want once", k, n)
		}
	}
	if len(m.entries) != 4 {
		t.Errorf("the memo holds %d entries, want one per key (4)", len(m.entries))
	}
}

// TestMemoAnswersOnlyForItsInput: an entry answers for the slice it was
// computed from and for no other, not one with equal contents at another
// address nor a shorter slice from the same address. Another input
// recomputes and replaces the entry; the key keeps one entry.
func TestMemoAnswersOnlyForItsInput(t *testing.T) {
	m, calls := counted()
	in := []int{1, 2, 3}
	for _, step := range []struct {
		what  string
		in    []int
		want  int
		calls int32
	}{
		{"first input", in, 6, 1},
		{"same input", in, 6, 1},
		{"equal contents at another address", []int{1, 2, 3}, 6, 2},
		{"shorter sub-slice", in[:2], 3, 3},
		{"the sub-slice again", in[:2], 3, 3},
		{"the first input after it was replaced", in, 6, 4},
	} {
		if got := m.Get(0, step.in); got != step.want {
			t.Fatalf("%s: Get = %d, want %d", step.what, got, step.want)
		}
		if n := calls[0].Load(); n != step.calls {
			t.Fatalf("%s: %d computations, want %d", step.what, n, step.calls)
		}
		if len(m.entries) != 1 {
			t.Fatalf("%s: the memo holds %d entries, want one for the one key", step.what, len(m.entries))
		}
	}
}

// TestMemoDoesNotStoreEmptyInput: an empty input is computed on every Get
// and leaves no entry.
func TestMemoDoesNotStoreEmptyInput(t *testing.T) {
	m, calls := counted()
	for _, in := range [][]int{nil, {}, nil, make([]int, 0, 8)} {
		if got := m.Get(1, in); got != 1 {
			t.Fatalf("Get of an empty input = %d, want 1", got)
		}
	}
	if n := calls[1].Load(); n != 4 {
		t.Errorf("4 empty inputs computed %d times, want 4", n)
	}
	if len(m.entries) != 0 {
		t.Errorf("the memo holds %d entries after empty inputs, want none", len(m.entries))
	}
}

// TestMemoPanicLeavesNoEntry: a compute that panics part-way (an injected
// fault, a bug) leaves its memo without an entry and unlocked, so the next
// Get computes the value itself; a memo it read before panicking keeps the
// entry it made. Here the outer memo reads the inner one, as time series'
// mark events read the window means, and its first computation panics.
func TestMemoPanicLeavesNoEntry(t *testing.T) {
	inner, innerCalls := counted()
	var outerCalls atomic.Int32
	outer := NewMemo(func(k int, in []int) int {
		v := inner.Get(k, in) * 10
		if outerCalls.Add(1) == 1 {
			panic("part-way")
		}
		return v
	})
	in := []int{4, 5}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first computation did not panic")
			}
		}()
		outer.Get(2, in)
	}()
	if len(outer.entries) != 0 {
		t.Fatalf("the outer memo holds %d entries after a panicking compute, want none", len(outer.entries))
	}
	if len(inner.entries) != 1 {
		t.Fatalf("the inner memo holds %d entries, want the one the panicking compute read", len(inner.entries))
	}
	done := make(chan int)
	go func() { done <- outer.Get(2, in) }()
	if got := <-done; got != 110 {
		t.Fatalf("Get after a panicking compute = %d, want 110", got)
	}
	if n := outerCalls.Load(); n != 2 {
		t.Errorf("the outer value was computed %d times, want 2: the panicking one and the next", n)
	}
	if n := innerCalls[2].Load(); n != 1 {
		t.Errorf("the inner value was computed %d times, want once: its entry outlives the outer panic", n)
	}
	if got := outer.Get(2, in); got != 110 || outerCalls.Load() != 2 {
		t.Errorf("a third Get read %d after %d computations, want 110 from the stored entry", got, outerCalls.Load())
	}
}

// TestMemoComputesDistinctKeysAtOnce: a key's value is computed outside the
// memo's lock, so two keys whose computations each wait for the other to
// have begun both finish. A memo that computed under its lock would hold
// the second Get until the first compute returned, which it never does.
func TestMemoComputesDistinctKeysAtOnce(t *testing.T) {
	began := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	m := NewMemo(func(k int, in []int) int {
		close(began[k])
		<-began[1-k]
		return k + in[0]
	})
	in := []int{10}
	got := make(chan int, 2)
	for k := range 2 {
		go func() { got <- m.Get(k, in) }()
	}
	timeout := time.After(10 * time.Second)
	sum := 0
	for range 2 {
		select {
		case v := <-got:
			sum += v
		case <-timeout:
			t.Fatal("two keys whose computations wait on each other did not finish: the memo computes one key at a time")
		}
	}
	if sum != 21 {
		t.Errorf("the two Gets read %d in all, want 10 + 11", sum)
	}
}

// TestMemoWaitersShareOneCompute: 16 Gets of one key, all asked while its
// value is being computed, wait for that one computation and read its
// value.
func TestMemoWaitersShareOneCompute(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	m := NewMemo(func(k int, in []int) int {
		calls.Add(1)
		<-release
		return k * in[0]
	})
	in := []int{3}
	got := make([]int, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Get(5, in)
		}()
	}
	// Every Get but the computing one waits: let them all arrive first.
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	for range 100 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, v := range got {
		if v != 15 {
			t.Fatalf("Get %d read %d, want 15", i, v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("16 Gets of one key computed %d times, want once", n)
	}
}

// TestMemoPanicWakesWaiters: the Gets waiting on a computation that panics
// are woken, and the value is computed again for them, once.
func TestMemoPanicWakesWaiters(t *testing.T) {
	began, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	m := NewMemo(func(k int, in []int) int {
		if calls.Add(1) == 1 {
			close(began)
			<-release
			panic("part-way")
		}
		return k + in[0]
	})
	in := []int{7}
	panicked := make(chan bool)
	go func() {
		defer func() { panicked <- recover() != nil }()
		m.Get(1, in)
	}()
	<-began
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Get(1, in)
		}()
	}
	for range 100 {
		runtime.Gosched()
	}
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the Gets waiting on a panicking computation were not woken")
	}
	if !<-panicked {
		t.Fatal("the first computation did not panic")
	}
	for i, v := range got {
		if v != 8 {
			t.Fatalf("waiter %d read %d, want 8", i, v)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d computations, want 2: the panicking one and one for the waiters", n)
	}
	if len(m.entries) != 1 || m.entries[0].pending != 0 {
		t.Errorf("the memo holds %d entries after the waiters' computation, want the one stored", len(m.entries))
	}
}

// TestMemoHitAllocatesNothing is the gate on the shared path: a Get its
// entry answers, with a scalar or a struct key, allocates nothing.
func TestMemoHitAllocatesNothing(t *testing.T) {
	type setting struct {
		l    int
		bits uint64
	}
	ints, _ := counted()
	structs := NewMemo(func(s setting, in []float64) []float64 { return in[:s.l] })
	in, xs := []int{1, 2}, []float64{1, 2, 3}
	ints.Get(3, in)
	structs.Get(setting{2, 7}, xs)
	if n := testing.AllocsPerRun(200, func() { ints.Get(3, in) }); n != 0 {
		t.Errorf("a hit with an int key allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { structs.Get(setting{2, 7}, xs) }); n != 0 {
		t.Errorf("a hit with a struct key allocates %.1f times, want 0", n)
	}
}

// BenchmarkMemoGet is one hit: what every sibling after the first pays.
func BenchmarkMemoGet(b *testing.B) {
	m, _ := counted()
	in := []int{1, 2, 3}
	m.Get(1, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(1, in)
	}
}
