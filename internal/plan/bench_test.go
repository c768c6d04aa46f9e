package plan

import (
	"os"
	"testing"

	"metadataflow/internal/spec"
)

// nestedSpecFile is the committed nested spec the vet's benchmark and
// allocation gate read: an explore of two branches whose body is an explore
// of two.
const nestedSpecFile = "../spec/testdata/fuzz/FuzzCanonical/seed-nested-explore"

func nestedSpec(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(nestedSpecFile)
	if err != nil {
		tb.Fatal(err)
	}
	return corpusInput(tb, nestedSpecFile, data)
}

// vetSink keeps BenchmarkVet's results, so that no call is optimised away.
var vetSink any

// BenchmarkVet times each layer of a spec's admission on one nested spec:
// parse, normalise, hash (HashNormalized of the normalised spec) and the
// whole plan.Verify battery, which normalises, compiles and hashes itself.
func BenchmarkVet(b *testing.B) {
	doc := nestedSpec(b)
	s, err := spec.Parse(doc)
	if err != nil {
		b.Fatal(err)
	}
	n := s.Normalized()
	cfg := DefaultConfig()
	for _, bc := range []struct {
		name string
		f    func()
	}{
		{"parse", func() { vetSink, _ = spec.Parse(doc) }},
		{"normalize", func() { vetSink = s.Normalized() }},
		{"hash", func() { vetSink = spec.HashNormalized(n) }},
		{"verify", func() { vetSink, _ = Verify(s, cfg) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.f()
			}
		})
	}
}
