package dnn

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"metadataflow/internal/vecmath"
)

// onGoPath runs f with vecmath's kernels on the plain-Go path, and then
// restores the choice.
func onGoPath(f func()) {
	vecmath.OnEachPath(func(avx bool) {
		if !avx {
			f()
		}
	})
}

// forwardScalar is the forward pass as per-neuron loops: one neuron, one
// sum, at a time.
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

// TestForwardMatchesScalar compares forward, vecmath.DotCols over the
// transposed first layer and DotRows over the second, with the per-neuron
// loops, bit for bit, on the kernel path this process runs, at every
// hidden width around DotRows' 4- and 8-row groups and DotCols' 4-column
// ones and at the default's 24 (DotCols' 24-column pass), over 3, 10 (the
// default) and 11 classes: the output layer's rows are the classes.
func TestForwardMatchesScalar(t *testing.T) {
	forwardMatchesScalar(t, "default")
}

// TestForwardMatchesScalarGoKernels holds the plain-Go forward pass to the
// per-neuron one too.
func TestForwardMatchesScalarGoKernels(t *testing.T) {
	onGoPath(func() { forwardMatchesScalar(t, "plain Go") })
}

func forwardMatchesScalar(t *testing.T, path string) {
	const in = 13
	for _, classes := range []int{3, 10, 11} {
		examples := GenerateExamples(40, in, classes, 0.8, 3)
		for hiddenN := 1; hiddenN <= 24; hiddenN++ {
			if hiddenN > 17 && hiddenN < 24 {
				continue
			}
			m := NewModel(in, hiddenN, classes, Init{Kind: InitGaussian, A: 0.5}, int64(hiddenN))
			for i := range m.B1 {
				m.B1[i] = 0.01 * float64(i+1) // biases start at zero: make them count
			}
			for i := range m.B2 {
				m.B2[i] = -0.02 * float64(i+1)
			}
			got, want := make([]float64, hiddenN), make([]float64, hiddenN)
			gotP, wantP := make([]float64, classes), make([]float64, classes)
			w1 := make([]float64, len(m.W1))
			m.toCols(w1, m.W1)
			for _, ex := range examples {
				m.forward(w1, ex.X, got, gotP)
				m.forwardScalar(ex.X, want, wantP)
				for h := range want {
					if math.Float64bits(got[h]) != math.Float64bits(want[h]) {
						t.Fatalf("%s path, hidden=%d classes=%d: activation %d = %v, scalar %v", path, hiddenN, classes, h, got[h], want[h])
					}
				}
				for c := range wantP {
					if math.Float64bits(gotP[c]) != math.Float64bits(wantP[c]) {
						t.Fatalf("%s path, hidden=%d classes=%d: probability %d = %v, scalar %v", path, hiddenN, classes, c, gotP[c], wantP[c])
					}
				}
			}
		}
	}
}

// TestTrainingChecksum pins what TrainEpoch and Accuracy compute through
// forward: the loss of two epochs, the accuracy and every weight, bit for
// bit, as the scalar forward pass and the per-neuron update loops produced
// them (the checksums were taken from them); the same two epochs through
// train, without the loss, must leave the same weights. The 13 × 5 shape
// gives every W1 row a tail past a multiple of four values.
//
// tanh and the softmax go through math.Exp, whose FMA sequence and plain
// one round differently, so each has its own checksums: the test takes
// those of the sequence vecmath's probe found this process's math.Exp to
// run (GODEBUG=cpu.fma=off runs the plain one on a CPU with FMA). The
// kernel path this process runs must reach them.
func TestTrainingChecksum(t *testing.T) {
	trainingChecksum(t, "default")
}

// TestTrainingChecksumGoKernels pins the plain-Go kernel path to the same
// checksums.
func TestTrainingChecksumGoKernels(t *testing.T) {
	onGoPath(func() { trainingChecksum(t, "plain Go") })
}

func trainingChecksum(t *testing.T, kernels string) {
	path := vecmath.ExpPath()
	for _, tc := range []struct {
		in, hidden int
		want       map[string]string
	}{
		{16, 24, map[string]string{
			"fma":   "loss=3fed8f92e96ce35a,3fc332d3db0bffd9 acc=3feeeeeeeeeeeeef weights=ebfc8f7932753952",
			"plain": "loss=3fed8f92e96ce35a,3fc332d3db0bffd8 acc=3feeeeeeeeeeeeef weights=492ffc0c699fccca",
		}},
		{16, 7, map[string]string{
			"fma":   "loss=3ff73c3a6657ff9a,3fe30ad2941995df acc=3fed555555555555 weights=4f911b905300e928",
			"plain": "loss=3ff73c3a6657ff9a,3fe30ad2941995df acc=3fed555555555555 weights=9cc55ea4ff62513c",
		}},
		{13, 5, map[string]string{
			"fma":   "loss=3ffc2dcc937e1f1b,3fef15f0c83812ed acc=3fe999999999999a weights=465cf889c001dda5",
			"plain": "loss=3ffc2dcc937e1f1b,3fef15f0c83812ee acc=3fe999999999999a weights=a1dc40677c8ca07b",
		}},
	} {
		want, ok := tc.want[path]
		if !ok {
			t.Fatalf("math.Exp runs neither of exp_amd64.s's sequences: no checksums are pinned for it")
		}
		examples := GenerateExamples(260, tc.in, 10, 0.8, 11)
		m := NewModel(tc.in, tc.hidden, 10, Init{Kind: InitUniform, A: 0.1}, 5)
		l1 := m.TrainEpoch(examples[:200], 0.01, 0.9)
		l2 := m.TrainEpoch(examples[:200], 0.005, 0.5)
		acc := m.Accuracy(examples[200:])
		got := fmt.Sprintf("loss=%016x,%016x acc=%016x weights=%016x",
			math.Float64bits(l1), math.Float64bits(l2), math.Float64bits(acc), weightsHash(m))
		if got != want {
			t.Errorf("%s kernels, in=%d hidden=%d, %s path: %s, want %s", kernels, tc.in, tc.hidden, path, got, want)
		}
		// The training operators' epoch, without the loss, moves the
		// weights to the same bits.
		quiet := NewModel(tc.in, tc.hidden, 10, Init{Kind: InitUniform, A: 0.1}, 5)
		quiet.train(examples[:200], 0.01, 0.9)
		quiet.train(examples[:200], 0.005, 0.5)
		if got, want := weightsHash(quiet), weightsHash(m); got != want {
			t.Errorf("%s kernels, in=%d hidden=%d: weights=%016x without the loss, want %016x", kernels, tc.in, tc.hidden, got, want)
		}
	}
}

// TestAccuracyRejectsWrongLengthExample holds each kernel path to refusing
// an example whose X is not In values long, one short or one long, rather
// than reading a prefix of each weight row.
func TestAccuracyRejectsWrongLengthExample(t *testing.T) {
	m := NewModel(13, 5, 10, Init{Kind: InitGaussian, A: 0.5}, 3)
	vecmath.OnEachPath(func(avx bool) {
		for _, in := range []int{m.In - 1, m.In + 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx=%v: Accuracy accepted an example of %d values, In = %d", avx, in, m.In)
					}
				}()
				m.Accuracy([]Example{{X: make([]float64, in)}})
			}()
		}
	})
}

// TestTrainEpochMatchesGoKernels trains a copy of a model on each kernel
// path, over the 13 × 5 shape (a tail in every W1 row) and the Defaults()
// one, and compares the loss and every parameter bit for bit with the
// plain-Go path's. The second epoch's examples hold an infinity and a NaN,
// which reach every weight, so non-finite values go through the kernels
// too.
func TestTrainEpochMatchesGoKernels(t *testing.T) {
	for _, shape := range []struct{ in, hidden int }{{13, 5}, {48, 24}} {
		examples := GenerateExamples(120, shape.in, 10, 0.8, 11)
		special := GenerateExamples(120, shape.in, 10, 0.8, 12)
		special[7].X[3], special[50].X[0] = math.Inf(1), math.NaN()
		initial := NewModel(shape.in, shape.hidden, 10, Init{Kind: InitGaussian, A: 0.5}, 3)
		var goLoss []float64
		var goModel *Model
		vecmath.OnEachPath(func(avx bool) {
			m := initial.Clone()
			var losses []float64
			for _, set := range [][]Example{examples, special} {
				losses = append(losses, m.TrainEpoch(set, 0.01, 0.9))
			}
			if !slices.ContainsFunc(m.W1, math.IsNaN) {
				t.Errorf("%d×%d: no weight became NaN", shape.in, shape.hidden)
			}
			if goModel == nil {
				goLoss, goModel = losses, m
				return
			}
			what := fmt.Sprintf("avx=%v %d×%d", avx, shape.in, shape.hidden)
			sameBits(t, what+" losses", losses, goLoss)
			for i, ws := range parameters(m) {
				sameBits(t, what+" parameters", ws, parameters(goModel)[i])
			}
		})
	}
}

// epochRows is epoch as it ran with the first layer row-major: forward
// through DotRows over W1, and W1's step through MomentumRows, one call
// each per example, with no copy of W1 or vW1.
func (m *Model) epochRows(examples []Example, lr, momentum float64) {
	hidden, dHidden := make([]float64, m.Hidden), make([]float64, m.Hidden)
	probs, lrgOut := make([]float64, m.Classes), make([]float64, m.Classes)
	for _, ex := range examples {
		copy(hidden, m.B1)
		vecmath.DotRows(hidden, m.W1, ex.X)
		vecmath.TanhRow(hidden, hidden)
		copy(probs, m.B2)
		vecmath.DotRows(probs, m.W2, hidden)
		maxLogit := math.Inf(-1)
		for _, s := range probs {
			if s > maxLogit {
				maxLogit = s
			}
		}
		for c := range probs {
			probs[c] -= maxLogit
		}
		vecmath.ExpRow(probs, probs)
		var z float64
		for _, p := range probs {
			z += p
		}
		for c := range probs {
			probs[c] /= z
		}
		g := probs
		g[ex.Y] -= 1
		for c, gc := range g {
			lrgOut[c] = lr * gc
			m.vB2[c] = momentum*m.vB2[c] - lrgOut[c]
			m.B2[c] += m.vB2[c]
		}
		clear(dHidden)
		vecmath.AxpyRows(dHidden, m.W2, g)
		vecmath.MomentumRows(m.W2, m.vW2, hidden, lrgOut, momentum)
		for h, hv := range hidden {
			lrg := lr * (dHidden[h] * (1 - hv*hv))
			dHidden[h] = lrg
			m.vB1[h] = momentum*m.vB1[h] - lrg
			m.B1[h] += m.vB1[h]
		}
		vecmath.MomentumRows(m.W1, m.vW1, ex.X, dHidden, momentum)
	}
}

// TestEpochMatchesRowMajor holds train, whose first layer runs transposed
// through DotCols and MomentumCols, to epochRows, bit for bit, on each
// kernel path: every parameter after two epochs, the second over examples
// holding infinities and NaNs of several payloads, which reach every
// weight. The shapes give DotCols a 4-column pass and a scalar tail (13 ×
// 5, 16 × 7) and its 24-column pass (48 × 24, Defaults()).
func TestEpochMatchesRowMajor(t *testing.T) {
	for _, shape := range []struct{ in, hidden int }{{13, 5}, {16, 7}, {48, 24}} {
		examples := GenerateExamples(120, shape.in, 10, 0.8, 11)
		special := GenerateExamples(120, shape.in, 10, 0.8, 12)
		special[7].X[3], special[30].X[1] = math.Inf(1), math.Inf(-1)
		special[50].X[0] = math.NaN()
		special[51].X[2] = math.Float64frombits(0xfff800000000beef)
		special[90].X[shape.in-1] = math.Float64frombits(0x7ff4000000000000)
		initial := NewModel(shape.in, shape.hidden, 10, Init{Kind: InitGaussian, A: 0.5}, 3)
		vecmath.OnEachPath(func(avx bool) {
			got, want := initial.Clone(), initial.Clone()
			for _, set := range [][]Example{examples, special} {
				got.train(set, 0.01, 0.9)
				want.epochRows(set, 0.01, 0.9)
			}
			what := fmt.Sprintf("avx=%v %d×%d", avx, shape.in, shape.hidden)
			if !slices.ContainsFunc(got.W1, math.IsNaN) {
				t.Errorf("%s: no weight became NaN", what)
			}
			for i, ws := range parameters(got) {
				sameBits(t, what+" parameters", ws, parameters(want)[i])
			}
		})
	}
}

func parameters(m *Model) [][]float64 {
	return [][]float64{m.W1, m.B1, m.W2, m.B2, m.vW1, m.vB1, m.vW2, m.vB2}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%016x), plain Go %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// weightsHash hashes the bits of every weight, bias and velocity of m.
func weightsHash(m *Model) uint64 {
	h := fnv.New64a()
	for _, ws := range [][]float64{m.W1, m.B1, m.W2, m.B2, m.vW1, m.vB1, m.vW2, m.vB2} {
		for _, w := range ws {
			fmt.Fprintf(h, "%016x", math.Float64bits(w))
		}
	}
	return h.Sum64()
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
	w1 := make([]float64, len(m.W1))
	m.toCols(w1, m.W1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forward(w1, examples[i%len(examples)].X, hidden, probs)
	}
}

// BenchmarkTrainEpoch is one training epoch of a Defaults() job: 600
// examples through the row and column kernels, no allocation once the
// scratch pool holds a buffer.
func BenchmarkTrainEpoch(b *testing.B) {
	examples, m := benchExamples()
	train := examples[:Defaults().Train]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainEpoch(train, 0.001, 0.5)
	}
}
