// Package dnn implements the deep learning workload of §6 (workload 1,
// Fig. 21): training a multi-layer neural network while exploring weight
// initialisation strategies, learning rates and momentum values, choosing
// the configuration with the highest validation accuracy. The CIFAR-10
// dataset is substituted by a synthetic class-structured image set with the
// same 10-class shape.
package dnn

import (
	"fmt"
	"math"

	"metadataflow/internal/stats"
)

// InitKind selects a weight initialisation strategy.
type InitKind int

const (
	// InitGaussian draws weights from N(mean, std).
	InitGaussian InitKind = iota
	// InitUniform draws weights from U(-bound, bound).
	InitUniform
)

// Init is one weight initialisation strategy (the paper explores eight,
// "based on either Gaussian or uniform distributions").
type Init struct {
	Kind InitKind
	// A is the std for Gaussian, the bound for uniform.
	A float64
	// Mean applies to Gaussian initialisation.
	Mean float64
}

// Name returns the strategy label.
func (w Init) Name() string {
	if w.Kind == InitGaussian {
		return fmt.Sprintf("Gaussian(%g,%g)", w.Mean, w.A)
	}
	return fmt.Sprintf("Uniform(-%g,%g)", w.A, w.A)
}

// Inits returns the paper's eight initialisation strategies.
func Inits() []Init {
	return []Init{
		{Kind: InitGaussian, A: 0.5},
		{Kind: InitGaussian, A: 0.1},
		{Kind: InitGaussian, A: 0.05},
		{Kind: InitGaussian, A: 0.01},
		{Kind: InitUniform, A: 1},
		{Kind: InitUniform, A: 0.1},
		{Kind: InitUniform, A: 0.05},
		{Kind: InitUniform, A: 0.01},
	}
}

// Example is one labelled sample.
type Example struct {
	X []float64
	Y int
}

// Model is a two-layer perceptron: input → hidden (tanh) → classes
// (softmax).
type Model struct {
	In, Hidden, Classes int
	W1                  []float64 // Hidden × In
	B1                  []float64
	W2                  []float64 // Classes × Hidden
	B2                  []float64
	// velocity buffers for momentum
	vW1, vB1, vW2, vB2 []float64
}

// NewModel allocates a model with the given shape and initialises its
// weights with the strategy and seed.
func NewModel(in, hidden, classes int, init Init, seed int64) *Model {
	m := &Model{
		In: in, Hidden: hidden, Classes: classes,
		W1: make([]float64, hidden*in), B1: make([]float64, hidden),
		W2: make([]float64, classes*hidden), B2: make([]float64, classes),
		vW1: make([]float64, hidden*in), vB1: make([]float64, hidden),
		vW2: make([]float64, classes*hidden), vB2: make([]float64, classes),
	}
	rng := stats.NewRNG(seed)
	draw := func() float64 {
		if init.Kind == InitGaussian {
			return rng.Normal(init.Mean, init.A)
		}
		return rng.Uniform(-init.A, init.A)
	}
	for i := range m.W1 {
		m.W1[i] = draw()
	}
	for i := range m.W2 {
		m.W2[i] = draw()
	}
	return m
}

// Clone returns a deep copy of the model (used when continuing training
// from a chosen initialisation in the early-choose MDF).
func (m *Model) Clone() *Model {
	cp := &Model{In: m.In, Hidden: m.Hidden, Classes: m.Classes}
	cp.W1 = append([]float64(nil), m.W1...)
	cp.B1 = append([]float64(nil), m.B1...)
	cp.W2 = append([]float64(nil), m.W2...)
	cp.B2 = append([]float64(nil), m.B2...)
	cp.vW1 = make([]float64, len(m.vW1))
	cp.vB1 = make([]float64, len(m.vB1))
	cp.vW2 = make([]float64, len(m.vW2))
	cp.vB2 = make([]float64, len(m.vB2))
	return cp
}

// forward computes hidden activations and class probabilities.
func (m *Model) forward(x []float64, hidden, probs []float64) {
	// The weight rows are sliced once per neuron to the length of the
	// vector they multiply, so the inner loops carry no bounds check.
	//
	// Four hidden neurons share one pass over x. A neuron's sum is one chain
	// of dependent additions, each waiting for the one before it; four
	// chains in flight overlap those waits. Every sum still adds the same
	// products in the same order.
	h := 0
	for ; h+4 <= m.Hidden; h += 4 {
		s0, s1, s2, s3 := m.B1[h], m.B1[h+1], m.B1[h+2], m.B1[h+3]
		r0 := m.W1[h*m.In : (h+1)*m.In][:len(x)]
		r1 := m.W1[(h+1)*m.In : (h+2)*m.In][:len(x)]
		r2 := m.W1[(h+2)*m.In : (h+3)*m.In][:len(x)]
		r3 := m.W1[(h+3)*m.In : (h+4)*m.In][:len(x)]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		hidden[h], hidden[h+1] = math.Tanh(s0), math.Tanh(s1)
		hidden[h+2], hidden[h+3] = math.Tanh(s2), math.Tanh(s3)
	}
	for ; h < m.Hidden; h++ {
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

// TrainEpoch performs one epoch of SGD with momentum over the examples and
// returns the mean cross-entropy loss (§6: "After an epoch of training, the
// classification accuracy is measured").
func (m *Model) TrainEpoch(examples []Example, lr, momentum float64) float64 {
	hidden := make([]float64, m.Hidden)
	probs := make([]float64, m.Classes)
	dHidden := make([]float64, m.Hidden)
	var loss float64
	for _, ex := range examples {
		m.forward(ex.X, hidden, probs)
		p := probs[ex.Y]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		// Output-layer gradient (softmax cross-entropy): dL/dlogit_c.
		for h := range dHidden {
			dHidden[h] = 0
		}
		for c := 0; c < m.Classes; c++ {
			g := probs[c]
			if c == ex.Y {
				g -= 1
			}
			// Weight and velocity rows are sliced once per neuron (see
			// forward). lr*g is hoisted: lr*g*hv is (lr*g)*hv, so every
			// floating-point operation and its order are unchanged.
			lrg := lr * g
			row := m.W2[c*m.Hidden : (c+1)*m.Hidden][:len(hidden)]
			vel := m.vW2[c*m.Hidden : (c+1)*m.Hidden][:len(hidden)]
			dh := dHidden[:len(hidden)]
			for h, hv := range hidden {
				dh[h] += g * row[h]
				v := momentum*vel[h] - lrg*hv
				vel[h] = v
				row[h] += v
			}
			m.vB2[c] = momentum*m.vB2[c] - lrg
			m.B2[c] += m.vB2[c]
		}
		// Hidden-layer gradient through tanh.
		for h := 0; h < m.Hidden; h++ {
			g := dHidden[h] * (1 - hidden[h]*hidden[h])
			lrg := lr * g
			row := m.W1[h*m.In : (h+1)*m.In][:len(ex.X)]
			vel := m.vW1[h*m.In : (h+1)*m.In][:len(ex.X)]
			for i, xi := range ex.X {
				v := momentum*vel[i] - lrg*xi
				vel[i] = v
				row[i] += v
			}
			m.vB1[h] = momentum*m.vB1[h] - lrg
			m.B1[h] += m.vB1[h]
		}
	}
	return loss / float64(len(examples))
}

// Accuracy returns the classification accuracy over the examples.
func (m *Model) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	hidden := make([]float64, m.Hidden)
	probs := make([]float64, m.Classes)
	correct := 0
	for _, ex := range examples {
		m.forward(ex.X, hidden, probs)
		best := 0
		for c := 1; c < m.Classes; c++ {
			if probs[c] > probs[best] {
				best = c
			}
		}
		if best == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// GenerateExamples produces a class-structured synthetic image set: each of
// the classes has a Gaussian prototype in feature space; samples are the
// prototype plus noise. This preserves what the experiment needs from
// CIFAR-10: training cost proportional to data size and accuracy that
// genuinely depends on the explored hyper-parameters.
func GenerateExamples(n, dims, classes int, noise float64, seed int64) []Example {
	rng := stats.NewRNG(seed)
	protos := make([][]float64, classes)
	for c := range protos {
		protos[c] = make([]float64, dims)
		for i := range protos[c] {
			protos[c][i] = rng.Normal(0, 1)
		}
	}
	out := make([]Example, n)
	for i := range out {
		c := i % classes
		x := make([]float64, dims)
		for j := range x {
			x[j] = protos[c][j] + rng.Normal(0, noise)
		}
		out[i] = Example{X: x, Y: c}
	}
	return out
}
