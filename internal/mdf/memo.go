package mdf

import "sync"

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
// Branches run on the engine's pool goroutines, hence the mutex. A value is
// computed under it, so a key's value is computed once however many siblings
// ask at once, and compute must not call Get on its own memo; it may call Get
// on another memo, which is how one shared value is computed from another.
// An entry is stored only once computed, so a compute that panics leaves
// none, and leaves the memo unlocked.
//
// A Memo lives and dies with the graph whose operators capture it, and keeps
// its inputs alive until then. Stored values are shared by every branch that
// reads them: nobody writes one.
type Memo[K comparable, T, V any] struct {
	compute func(K, []T) V
	mu      sync.Mutex
	entries []memoEntry[K, T, V]
}

type memoEntry[K comparable, T, V any] struct {
	k  K
	in []T
	v  V
}

// NewMemo returns an empty memo of compute. compute is fixed here, so Get
// takes no function and a hit allocates nothing.
func NewMemo[K comparable, T, V any](compute func(K, []T) V) *Memo[K, T, V] {
	return &Memo[K, T, V]{compute: compute}
}

// Get returns compute(k, in), computed at most once per key and input.
func (m *Memo[K, T, V]) Get(k K, in []T) V {
	if len(in) == 0 {
		return m.compute(k, in)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	for i < len(m.entries) && m.entries[i].k != k {
		i++
	}
	if i < len(m.entries) && len(m.entries[i].in) == len(in) && &m.entries[i].in[0] == &in[0] {
		return m.entries[i].v
	}
	v := m.compute(k, in)
	if i == len(m.entries) {
		if m.entries == nil {
			// A graph's memo holds a few keys: room for 8 from the start
			// spares the allocations of growing one entry at a time.
			m.entries = make([]memoEntry[K, T, V], 0, 8)
		}
		m.entries = append(m.entries, memoEntry[K, T, V]{k: k})
	}
	m.entries[i].in, m.entries[i].v = in, v
	return v
}
