package spawnbound

import "sync"

// okWaitGroup joins through Done/Wait on the same WaitGroup object.
func okWaitGroup(items []int, work func(int)) {
	var wg sync.WaitGroup
	for _, v := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			work(v)
		}(v)
	}
	wg.Wait()
}

// okChannelJoin signals on a channel the function receives from.
func okChannelJoin(work func() int) int {
	res := make(chan int, 1)
	go func() {
		res <- work()
	}()
	return <-res
}

// okCloseJoin closes a done channel that is received from elsewhere.
func okCloseJoin(work func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	<-done
}

// server shows the method-spawn pattern the service uses: the loop method
// closes a field channel and Close waits on the same field object.
type server struct {
	done chan struct{}
	work func()
}

func newServer(work func()) *server {
	s := &server{done: make(chan struct{}), work: work}
	go s.loop()
	return s
}

func (s *server) loop() {
	defer close(s.done)
	s.work()
}

func (s *server) Close() {
	<-s.done
}

// okRangeJoin consumes results with range, which also counts as receiving.
func okRangeJoin(items []int, work func(int) int) int {
	out := make(chan int)
	var wg sync.WaitGroup
	for _, v := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			out <- work(v)
		}(v)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	sum := 0
	for v := range out {
		sum += v
	}
	return sum
}
