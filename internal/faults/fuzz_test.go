package faults

import (
	"encoding/json"
	"testing"
)

// FuzzParse ensures the fault-plan parser never panics on arbitrary input,
// and that any plan it accepts survives a marshal/parse round trip: a
// validated plan must serialise back into a plan the parser accepts again,
// so fault schedules can be stored and replayed byte-for-byte.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":7,"ckptFlips":[{"load":1,"bit":3}]}`))
	f.Add([]byte(`{"crashes":[{"node":1,"afterStages":2,"permanent":true}],` +
		`"slowdowns":[{"node":0,"factor":2,"from":1,"to":4}]}`))
	f.Add([]byte(`{"panics":[{"op":"eval","target":"transform","times":2}],` +
		`"diskFaults":[{"node":2,"factor":4,"from":0}]}`))
	f.Add([]byte(`{"crashes":[{"node":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal of accepted plan failed: %v", err)
		}
		q, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of marshalled plan failed: %v\nplan: %s", err, out)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("round-tripped plan invalid: %v", err)
		}
	})
}
