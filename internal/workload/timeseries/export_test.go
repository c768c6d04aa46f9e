package timeseries

import "sync/atomic"

// CountMaskFills adds one to n for every mask output that is filled, until
// the returned function is called. Set it before a job starts and restore
// it after the job ends: the engine's pool goroutines read the hook.
func CountMaskFills(n *atomic.Int64) (restore func()) {
	maskFilled = func() { n.Add(1) }
	return func() { maskFilled = nil }
}
