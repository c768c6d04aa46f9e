package locksafety

import "sync"

// okPlain is the canonical critical section: lock, touch state, unlock.
func okPlain(s *S) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// okDefer releases via defer with no blocking op in between.
func okDefer(s *S) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// okReleaseBeforeBlock drops the lock before parking — the pattern the
// rule pushes real code toward.
func okReleaseBeforeBlock(s *S) {
	s.mu.Lock()
	v := s.n
	s.mu.Unlock()
	s.ch <- v
}

// okBranches unlocks on every arm, so the merge is balanced.
func okBranches(s *S, b bool) {
	s.mu.Lock()
	if b {
		s.n++
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
}

// okSelectDefault never parks: select with default is non-blocking.
func okSelectDefault(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		s.n = v
	default:
	}
}

// okCondWait is the sanctioned step-loop idiom: Cond.Wait releases the
// associated mutex while parked, so holding across it is fine.
type waiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func okCondWait(w *waiter) {
	w.mu.Lock()
	for w.n == 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// incLocked follows the *Locked helper convention: the caller holds the
// lock, and the naked Unlock/Lock pairing inside is never flagged.
func (s *S) incLocked() { s.n++ }

func okLockedHelper(s *S) {
	s.mu.Lock()
	s.incLocked()
	s.mu.Unlock()
}

// okRead takes the read side and releases it on both paths.
func okRead(s *S, b bool) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	if b {
		return s.n
	}
	return -s.n
}

// okSpawnNotBlocking: spawning a goroutine that blocks is not itself a
// blocking op for the spawner.
func okSpawnNotBlocking(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { <-s.ch }()
}
