package dnn

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// forwardScalar is forward as it was before it took four hidden neurons per
// pass over x: one neuron, one sum, at a time.
func (m *Model) forwardScalar(x []float64, hidden, probs []float64) {
	for h := 0; h < m.Hidden; h++ {
		sum := m.B1[h]
		row := m.W1[h*m.In : (h+1)*m.In][:len(x)]
		for i, xi := range x {
			sum += row[i] * xi
		}
		hidden[h] = math.Tanh(sum)
	}
	maxLogit := math.Inf(-1)
	for c := 0; c < m.Classes; c++ {
		sum := m.B2[c]
		row := m.W2[c*m.Hidden : (c+1)*m.Hidden][:len(hidden)]
		for h, hv := range hidden {
			sum += row[h] * hv
		}
		probs[c] = sum
		if sum > maxLogit {
			maxLogit = sum
		}
	}
	var z float64
	for c := range probs {
		probs[c] = math.Exp(probs[c] - maxLogit)
		z += probs[c]
	}
	for c := range probs {
		probs[c] /= z
	}
}

// TestForwardMatchesScalar compares the blocked forward pass with the scalar
// one, bit for bit, at every hidden width around the block size — the
// remainder loop takes 1, 2, 3 or no neurons — and at the default's 24.
func TestForwardMatchesScalar(t *testing.T) {
	const in, classes = 13, 5
	examples := GenerateExamples(40, in, classes, 0.8, 3)
	for _, hiddenN := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 24} {
		m := NewModel(in, hiddenN, classes, Init{Kind: InitGaussian, A: 0.5}, int64(hiddenN))
		for i := range m.B1 {
			m.B1[i] = 0.01 * float64(i+1) // biases start at zero: make them count
		}
		got, want := make([]float64, hiddenN), make([]float64, hiddenN)
		gotP, wantP := make([]float64, classes), make([]float64, classes)
		for _, ex := range examples {
			m.forward(ex.X, got, gotP)
			m.forwardScalar(ex.X, want, wantP)
			for h := range want {
				if math.Float64bits(got[h]) != math.Float64bits(want[h]) {
					t.Fatalf("hidden=%d: activation %d = %v, scalar %v", hiddenN, h, got[h], want[h])
				}
			}
			for c := range wantP {
				if math.Float64bits(gotP[c]) != math.Float64bits(wantP[c]) {
					t.Fatalf("hidden=%d: probability %d = %v, scalar %v", hiddenN, c, gotP[c], wantP[c])
				}
			}
		}
	}
}

// TestTrainingChecksum pins what TrainEpoch and Accuracy compute through
// forward: the loss of two epochs, the accuracy and every weight, bit for
// bit, as the scalar forward pass produced them (the checksums were taken
// from it).
func TestTrainingChecksum(t *testing.T) {
	for _, tc := range []struct {
		hidden int
		want   string
	}{
		{24, "loss=3fed8f92e96ce35a,3fc332d3db0bffd9 acc=3feeeeeeeeeeeeef weights=ebfc8f7932753952"},
		{7, "loss=3ff73c3a6657ff9a,3fe30ad2941995df acc=3fed555555555555 weights=4f911b905300e928"},
	} {
		examples := GenerateExamples(260, 16, 10, 0.8, 11)
		m := NewModel(16, tc.hidden, 10, Init{Kind: InitUniform, A: 0.1}, 5)
		l1 := m.TrainEpoch(examples[:200], 0.01, 0.9)
		l2 := m.TrainEpoch(examples[:200], 0.005, 0.5)
		acc := m.Accuracy(examples[200:])
		h := fnv.New64a()
		for _, ws := range [][]float64{m.W1, m.B1, m.W2, m.B2, m.vW1, m.vB1, m.vW2, m.vB2} {
			for _, w := range ws {
				fmt.Fprintf(h, "%016x", math.Float64bits(w))
			}
		}
		got := fmt.Sprintf("loss=%016x,%016x acc=%016x weights=%016x",
			math.Float64bits(l1), math.Float64bits(l2), math.Float64bits(acc), h.Sum64())
		if got != tc.want {
			t.Errorf("hidden=%d: %s, want %s", tc.hidden, got, tc.want)
		}
	}
}

func benchExamples() ([]Example, *Model) {
	p := Defaults()
	return GenerateExamples(p.Train+p.Val, p.Dims, p.Classes, p.Noise, p.Seed),
		NewModel(p.Dims, p.Hidden, p.Classes, p.Inits[1], p.Seed)
}

// BenchmarkForward is one forward pass at the Defaults() shape (48 inputs,
// 24 hidden neurons, 10 classes).
func BenchmarkForward(b *testing.B) {
	examples, m := benchExamples()
	hidden, probs := make([]float64, m.Hidden), make([]float64, m.Classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forward(examples[i%len(examples)].X, hidden, probs)
	}
}

// BenchmarkTrainEpoch is one training epoch of a Defaults() job: 600
// examples.
func BenchmarkTrainEpoch(b *testing.B) {
	examples, m := benchExamples()
	train := examples[:Defaults().Train]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainEpoch(train, 0.001, 0.5)
	}
}
