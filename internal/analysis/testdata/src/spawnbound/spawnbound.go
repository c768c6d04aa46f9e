// Package spawnbound is the violating fixture for the spawnbound rule:
// go statements whose goroutines have no visible join in the package.
package spawnbound

import (
	"sync"

	"fixture/spawnbound/nowait"
)

// FireAndForget spawns a goroutine that never signals completion.
func FireAndForget(work func()) {
	go func() { // want:spawnbound
		work()
	}()
}

// SignalNobodyWaits sends a completion signal on a channel nothing in the
// package ever receives from.
func SignalNobodyWaits(work func()) {
	orphan := make(chan struct{})
	go func() { // want:spawnbound
		work()
		orphan <- struct{}{}
	}()
}

// DoneWithoutWait calls WaitGroup.Done but the package never calls Wait.
func DoneWithoutWait(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go func() { // want:spawnbound
		defer wg.Done()
		work()
	}()
}

// ExternalSpawn launches a function from another package: its join is not
// visible here.
func ExternalSpawn() {
	go nowait.Detached() // want:spawnbound
}

// MethodNoJoin spawns a same-package method whose body never signals.
type looper struct{ n int }

func (l *looper) spin() { l.n++ }

func MethodNoJoin(l *looper) {
	go l.spin() // want:spawnbound
}

// AllowedDetach is a documented deliberate detachment.
func AllowedDetach(work func()) {
	go func() { //lint:allow spawnbound -- janitor goroutine lives for the process lifetime
		work()
	}()
}
