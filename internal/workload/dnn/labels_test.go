package dnn

import (
	"fmt"
	"math"
	"testing"

	"metadataflow/internal/mdf"
)

// TestLabelsSpellLikeSprintf holds the names and labels the builders spell
// with strconv to the fmt formats they replaced, over the default grid and
// the values where %g is easiest to get wrong.
func TestLabelsSpellLikeSprintf(t *testing.T) {
	extra := []float64{1e-4, 1e-5, 1e21, 0.5, math.Copysign(0, -1)}
	p := Defaults()
	rates := append(append([]float64{}, p.LearningRates...), extra...)
	momenta := append(append([]float64{}, p.Momenta...), extra...)
	inits := append([]Init{}, p.Inits...)
	for _, x := range extra {
		inits = append(inits, Init{Kind: InitGaussian, A: x, Mean: x}, Init{Kind: InitUniform, A: x})
	}
	for _, w := range inits {
		want := fmt.Sprintf("Uniform(-%g,%g)", w.A, w.A)
		if w.Kind == InitGaussian {
			want = fmt.Sprintf("Gaussian(%g,%g)", w.Mean, w.A)
		}
		if got := w.Name(); got != want {
			t.Errorf("%+v.Name() = %q, want %q", w, got, want)
		}
		for _, r := range rates {
			for _, m := range momenta {
				name := trainName(w.Name(), r, m)
				if want := fmt.Sprintf("train(%s,r=%g,m=%g)", w.Name(), r, m); name != want {
					t.Errorf("trainName(%q, %g, %g) = %q, want %q", w.Name(), r, m, name, want)
				}
				if got, want := mdf.Setting(name), fmt.Sprintf("%s,r=%g,m=%g", w.Name(), r, m); got != want {
					t.Errorf("Setting(%q) = %q, want %q", name, got, want)
				}
			}
		}
	}
	for _, r := range rates {
		for _, m := range momenta {
			name := trainName("", r, m)
			if want := fmt.Sprintf("train(r=%g,m=%g)", r, m); name != want {
				t.Errorf("trainName(\"\", %g, %g) = %q, want %q", r, m, name, want)
			}
			if got, want := mdf.Setting(name), fmt.Sprintf("r=%g,m=%g", r, m); got != want {
				t.Errorf("Setting(%q) = %q, want %q", name, got, want)
			}
		}
	}
}
