package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedBaselinesByteIdentical regenerates every registered
// experiment in quick mode with one seed — the protocol `make
// bench-baseline` uses — and compares the JSON document byte for byte with
// the BENCH_<id>.json committed at the repo root. Any change to the
// simulation or to an experiment's parameters has to regenerate the
// baseline in the same commit, and `go test ./...` says so.
func TestCommittedBaselinesByteIdentical(t *testing.T) {
	o := quick()
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+e.ID+".json"))
			if err != nil {
				t.Fatal(err)
			}
			tab, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tab.JSON(o.SeedList())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("BENCH_%s.json drifted from the committed baseline:\n got: %s\nwant: %s", e.ID, got, want)
			}
		})
	}
}
