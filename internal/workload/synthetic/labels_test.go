package synthetic

import (
	"fmt"
	"testing"
)

// TestLabelsSpellLikeSprintf holds the branch names and labels branchValues
// spells with strconv to the fmt formats they replaced, over the paper's
// progression and past it.
func TestLabelsSpellLikeSprintf(t *testing.T) {
	for _, op := range []string{"op", "op2"} {
		specs, names := branchValues(14, op)
		for i, s := range specs {
			w := int64(s.Hint)
			if want := fmt.Sprintf("%s(w=%d)", op, w); names[i] != want {
				t.Errorf("name %d = %q, want %q", i, names[i], want)
			}
			if want := fmt.Sprintf("w=%d", w); s.Label != want {
				t.Errorf("label %d = %q, want %q", i, s.Label, want)
			}
		}
	}
}
