package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// BenchmarkServiceJob is one job through the service with no HTTP around
// it: Submit (parse, vet, admit), the step loop running it with a recorder
// attached, and retirement (snapshot, watch events), until the server is
// idle again. The job is the 3×3 nested explore at the input size of the
// serve benchmark's mix, 41 stages.
func BenchmarkServiceJob(b *testing.B) {
	req := JobRequest{Tenant: "a", Spec: json.RawMessage(strings.Replace(nestedSpec, "805306368", "25165824", 1))}
	s := New(Config{})
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		s.WaitIdle()
		if i == 0 {
			b.StopTimer()
			if done, err := s.Job(st.ID); err != nil || done.State != StateDone {
				b.Fatalf("job ended %+v, %v", done, err)
			}
			b.StartTimer()
		}
	}
}
