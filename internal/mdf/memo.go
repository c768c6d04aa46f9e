package mdf

import (
	"slices"
	"sync"
)

// Memo is what sibling branches of one graph share: per key, one value that
// depends on nothing but the key and the input it was computed from, so the
// siblings with a key in common compute it once. Each branch is still
// charged its own virtual cost; only host work is shared.
//
// There is one entry per key, and it answers only for the input it was
// computed from, told by the first element's address and the length of the
// slice; the entry holds that slice, so the address cannot be reused. Any
// other input, one with equal contents or a shorter sub-slice included,
// recomputes the value and replaces the entry. An empty input is computed
// every time and never stored. Keys compare with ==: a key not equal to
// itself, such as a NaN, never hits and adds an entry per Get.
//
// Branches run on the engine's pool goroutines, hence the mutex. A missing
// value is computed outside it, so siblings with distinct keys compute
// theirs at once; a Get of a key whose value is being computed waits for
// it, so a key's value is computed once however many siblings ask at once.
// compute must therefore not call Get on its own memo; it may call Get on
// another memo, which is how one shared value is computed from another. An
// entry is stored only once computed: a compute that panics removes the
// entry it was to fill and wakes the siblings waiting on it; the first of
// them to look again computes the value, and the rest wait for that one.
//
// A Memo lives and dies with the graph whose operators capture it, and keeps
// its inputs alive until then. Stored values are shared by every branch that
// reads them: nobody writes one.
type Memo[K comparable, T, V any] struct {
	compute func(K, []T) V
	mu      sync.Mutex
	// done is broadcast, under mu, whenever a computation ends, stored or
	// not: the Gets waiting on a pending entry look again.
	done    sync.Cond
	entries []memoEntry[K, T, V]
	// tickets counts the computations begun. Each one's ticket finds its
	// pending entry again, however the entries moved while it ran.
	tickets uint64
}

type memoEntry[K comparable, T, V any] struct {
	k  K
	in []T
	v  V
	// pending is the ticket of the computation under way for k and in, 0
	// once v is stored.
	pending uint64
}

// NewMemo returns an empty memo of compute. compute is fixed here, so Get
// takes no function and a hit allocates nothing.
func NewMemo[K comparable, T, V any](compute func(K, []T) V) *Memo[K, T, V] {
	m := &Memo[K, T, V]{compute: compute}
	m.done.L = &m.mu
	return m
}

// Get returns compute(k, in), computed at most once per key and input.
func (m *Memo[K, T, V]) Get(k K, in []T) V {
	if len(in) == 0 {
		return m.compute(k, in)
	}
	m.mu.Lock()
	i := m.find(k)
	for i < len(m.entries) && m.entries[i].pending != 0 {
		m.done.Wait()
		i = m.find(k)
	}
	if i < len(m.entries) && len(m.entries[i].in) == len(in) && &m.entries[i].in[0] == &in[0] {
		v := m.entries[i].v
		m.mu.Unlock()
		return v
	}
	ticket := m.claim(i, k, in)
	m.mu.Unlock()
	return m.fill(ticket, k, in)
}

// find returns the index of k's entry, or len(m.entries) if it has none.
// The caller holds mu.
func (m *Memo[K, T, V]) find(k K) int {
	i := 0
	for i < len(m.entries) && m.entries[i].k != k {
		i++
	}
	return i
}

// claim marks entry i pending for k and in — a new entry when i is past the
// last — and returns the ticket of the computation that fills it. The
// caller holds mu.
func (m *Memo[K, T, V]) claim(i int, k K, in []T) uint64 {
	if i == len(m.entries) {
		if m.entries == nil {
			// A graph's memo holds a few keys: room for 8 from the start
			// spares the allocations of growing one entry at a time.
			m.entries = make([]memoEntry[K, T, V], 0, 8)
		}
		m.entries = append(m.entries, memoEntry[K, T, V]{k: k})
	}
	m.tickets++
	var zero V
	m.entries[i].in, m.entries[i].v, m.entries[i].pending = in, zero, m.tickets
	return m.tickets
}

// fill computes the value of the entry claimed with ticket, outside the
// lock, and stores it.
func (m *Memo[K, T, V]) fill(ticket uint64, k K, in []T) V {
	stored := false
	defer func() {
		if stored {
			return
		}
		// compute panicked: the entry goes, and the panic goes on.
		m.mu.Lock()
		j := m.claimed(ticket)
		m.entries = slices.Delete(m.entries, j, j+1)
		m.done.Broadcast()
		m.mu.Unlock()
	}()
	v := m.compute(k, in)
	m.mu.Lock()
	j := m.claimed(ticket)
	m.entries[j].v, m.entries[j].pending = v, 0
	stored = true
	m.done.Broadcast()
	m.mu.Unlock()
	return v
}

// claimed returns the index of the entry the computation with ticket fills.
// The caller holds mu.
func (m *Memo[K, T, V]) claimed(ticket uint64) int {
	i := 0
	for m.entries[i].pending != ticket {
		i++
	}
	return i
}
