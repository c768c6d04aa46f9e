// Package locksafety is the violating fixture for the locksafety rule:
// locks held across blocking operations, unbalanced paths and
// self-deadlocks.
package locksafety

import (
	"sync"

	"fixture/locksafety/engine"
)

// S is the guarded state every case operates on.
type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	wg sync.WaitGroup
	ch chan int
	r  *engine.Run
	n  int
}

// HeldAcrossSend blocks on a channel send inside the critical section.
func HeldAcrossSend(s *S) {
	s.mu.Lock()
	s.ch <- 1 // want:locksafety
	s.mu.Unlock()
}

// HeldAcrossRecv holds via defer across a channel receive.
func HeldAcrossRecv(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ch // want:locksafety
}

// HeldAcrossWait parks on a WaitGroup with the lock held.
func HeldAcrossWait(s *S) {
	s.mu.Lock()
	s.wg.Wait() // want:locksafety
	s.mu.Unlock()
}

// HeldAcrossStep runs real operator compute under the lock (the configured
// blocking call engine.Run.Step).
func HeldAcrossStep(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.Step() // want:locksafety
}

// HeldAcrossSelect parks on a select with no default.
func HeldAcrossSelect(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want:locksafety
	case v := <-s.ch:
		s.n = v
	}
}

// HeldAcrossHelper reaches a blocking channel receive through a
// same-package helper (the may-block summary fixpoint).
func HeldAcrossHelper(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recvHelper() // want:locksafety
}

func (s *S) recvHelper() { s.n = <-s.ch }

// DoubleLock re-locks a mutex already held on the same path.
func DoubleLock(s *S) {
	s.mu.Lock()
	s.mu.Lock() // want:locksafety
	s.mu.Unlock()
	s.mu.Unlock()
}

// RLockWhileLocked read-locks an RWMutex already write-held.
func RLockWhileLocked(s *S) {
	s.rw.Lock()
	s.rw.RLock() // want:locksafety
	s.rw.RUnlock()
	s.rw.Unlock()
}

// ReturnHeld returns with the lock held on the early path.
func ReturnHeld(s *S, b bool) int {
	s.mu.Lock()
	if b {
		return 1 // want:locksafety
	}
	s.mu.Unlock()
	return 0
}

// BranchImbalance unlocks on one arm only; the merge point is reported.
func BranchImbalance(s *S, b bool) {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
	} // want:locksafety
	s.n++
	s.mu.Unlock()
}

// LoopImbalance acquires once per iteration and never releases.
func LoopImbalance(s *S, n int) {
	for i := 0; i < n; i++ { // want:locksafety
		s.mu.Lock()
	}
}

// ExitHeld falls off the end of the function with the lock held.
func ExitHeld(s *S) {
	s.mu.Lock()
	s.n++
} // want:locksafety
