package mdf

import "testing"

// BenchmarkChooseThroughput measures master-side selection throughput, the
// §5 claim that a low-end master sustains ~2M choose invocations per second
// when collecting results: one Offer to a top-4 session per iteration.
func BenchmarkChooseThroughput(b *testing.B) {
	session := NewChooser(SizeEvaluator(), TopK(4)).NewSession(b.N + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Offer(i, float64(i%97))
	}
}
