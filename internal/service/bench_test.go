package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// BenchmarkServiceJob is one job through the service with no HTTP around
// it: Submit (the admission pipeline, then admission), the step loop running
// it with its gauge probe attached, and retirement (snapshot, watch events),
// until the server is idle again. The job is the 3×3 nested explore at the
// input size of the serve benchmark's mix, 41 stages.
//
// new submits a document the server has never seen on every iteration
// (parse, vet, hash, compile, plan); repeat submits the same bytes every
// time, the way an analyst's stream does, and its jobs run on the plan the
// vet memo keeps: admission allocates nothing.
func BenchmarkServiceJob(b *testing.B) {
	doc := strings.Replace(nestedSpec, "805306368", "25165824", 1)
	for _, bc := range []struct {
		name string
		doc  func(i int) json.RawMessage
	}{
		{"new", func(i int) json.RawMessage { return uniqueDoc(doc, i) }},
		{"repeat", func(int) json.RawMessage { return json.RawMessage(doc) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := open(b, Config{})
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := s.Submit(JobRequest{Tenant: "a", Spec: bc.doc(i)})
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
		})
	}
}
