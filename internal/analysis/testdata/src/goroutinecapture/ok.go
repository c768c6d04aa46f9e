package goroutinecapture

import "sync"

// okMutexWrite writes a captured variable under a lock: the closure has a
// sync edge, so the write is coordinated.
func okMutexWrite(n int) int {
	var mu sync.Mutex
	total := 0
	for i := 0; i < n; i++ {
		go func(i int) {
			mu.Lock()
			total += i
			mu.Unlock()
		}(i)
	}
	return total
}

// okChannelResult reports through a channel instead of a shared write.
func okChannelResult(n int) chan int {
	out := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			out <- i * i
		}(i)
	}
	return out
}

// okWaitGroup writes after arranging a Done/Wait edge.
func okWaitGroup(items []int) []int {
	res := make([]int, len(items))
	var wg sync.WaitGroup
	for idx, v := range items {
		wg.Add(1)
		go func(idx, v int) {
			defer wg.Done()
			res[idx] = v * 2
		}(idx, v)
	}
	wg.Wait()
	return res
}

// okRead merely reads captured variables, a loop variable among them
// (scoped per iteration under the module's go 1.22) — reads without writes
// are not flagged.
func okRead(items []int, sink func(int)) {
	base := 7
	for _, v := range items {
		go func() {
			sink(base + v)
		}()
	}
}
