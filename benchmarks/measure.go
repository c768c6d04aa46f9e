package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time from getrusage. It
// covers every thread — GC workers and HTTP handlers included — which is
// what cpu_ms_per_job is for: work that wall latency hides.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns VmHWM, the process's resident-set high-water mark, in
// MiB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed pure-CPU loop (no allocation, no memory traffic
// beyond registers). It runs at each round start so that a slow clock phase
// of the host shows up in the output next to the round it slowed.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

// counters is one reading of the process-wide clocks and allocation
// counters; a round's cost is the difference of two readings.
type counters struct {
	wall      time.Time
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcCPUFrac float64
	heapLive  uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		wall:      time.Now(),
		cpu:       cpuTime(),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcCPUFrac: ms.GCCPUFraction,
		heapLive:  ms.HeapAlloc,
	}
}

// percentileLadder lists the percentiles the harness may report, in rising
// order, in tenths of a percent so that the sample rule is integer
// arithmetic. A percentile is supported by n samples when at least
// minBeyond of them lie beyond it.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

const minBeyond = 10

// supported reports whether n samples leave at least minBeyond beyond the
// percentile given in tenths of a percent.
func supported(permille, n int) bool {
	return n*(1000-permille)/1000 >= minBeyond
}

// tailPercentile returns the highest percentile of the ladder that n samples
// support, or 0 when not even the median has minBeyond samples beyond it.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range percentileLadder {
		if supported(p, n) {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// cappedPercentile returns the want-th percentile when the samples support
// it, and otherwise the highest supported one (the median at the least),
// together with the percentile actually used.
func cappedPercentile(sorted []float64, want float64) (value, used float64) {
	used = want
	if !supported(int(math.Round(want*10)), len(sorted)) {
		used = math.Max(50, math.Min(want, tailPercentile(len(sorted))))
	}
	return percentile(sorted, used), used
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relSpread is how far values of one metric spread as a share of their
// median: the distance between the first and the third quartile (as
// Python's statistics.quantiles(values, n=4) gives them, which is what the
// repository's driver computes over runs), or the whole range when there
// are fewer than four values.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	quartile := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based, exclusive method
		lo := int(math.Floor(pos))
		lo = max(1, min(lo, len(s)-1))
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
