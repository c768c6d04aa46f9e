package kde

import (
	"fmt"
	"math"
	"testing"

	"metadataflow/internal/mdf"
)

// TestLabelsSpellLikeSprintf holds the names and labels the builders spell
// with strconv to the fmt formats they replaced, over the default grids and
// the values where %g is easiest to get wrong.
func TestLabelsSpellLikeSprintf(t *testing.T) {
	extra := []float64{1e-4, 1e-5, 1e21, 0.5, math.Copysign(0, -1)}
	bandwidths := append(append([]float64{DefaultExample().Bandwidth}, Defaults().Bandwidths...), extra...)
	outliers := append(append([]float64{}, DefaultScoped().OutlierThresholds...), extra...)
	kernels, err := Defaults().kernels()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels {
		for _, h := range bandwidths {
			name := kdeName(k.Name, h)
			if want := fmt.Sprintf("kde(%s,h=%g)", k.Name, h); name != want {
				t.Errorf("kdeName(%q, %g) = %q, want %q", k.Name, h, name, want)
			}
			if got, want := mdf.Setting(name), fmt.Sprintf("%s,h=%g", k.Name, h); got != want {
				t.Errorf("Setting(%q) = %q, want %q", name, got, want)
			}
		}
		for _, o := range outliers {
			if got, want := outlierLabel(o, k.Name), fmt.Sprintf("o=%g,%s", o, k.Name); got != want {
				t.Errorf("outlierLabel(%g, %q) = %q, want %q", o, k.Name, got, want)
			}
		}
	}
	for _, o := range outliers {
		if got, want := outlierLabel(o, ""), fmt.Sprintf("o=%g", o); got != want {
			t.Errorf("outlierLabel(%g, \"\") = %q, want %q", o, got, want)
		}
	}
}
