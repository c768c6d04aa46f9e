// Package dnn implements the deep learning workload of §6 (workload 1,
// Fig. 21): training a multi-layer neural network while exploring weight
// initialisation strategies, learning rates and momentum values, choosing
// the configuration with the highest validation accuracy. The CIFAR-10
// dataset is substituted by a synthetic class-structured image set with the
// same 10-class shape.
package dnn

import (
	"math"
	"strconv"
	"sync"

	"metadataflow/internal/stats"
	"metadataflow/internal/vecmath"
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

// Name returns the strategy label, "Gaussian(%g,%g)" of the mean and the std
// or "Uniform(-%g,%g)" of the bound, in one allocation.
func (w Init) Name() string {
	var buf [64]byte
	b := buf[:0]
	if w.Kind == InitGaussian {
		b = appendG(append(b, "Gaussian("...), w.Mean)
	} else {
		b = appendG(append(b, "Uniform(-"...), w.A)
	}
	return string(append(appendG(append(b, ','), w.A), ')'))
}

// appendG appends x as %g prints it: strconv's shortest 'g' form.
func appendG(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) }

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

// forward computes hidden activations and class probabilities. w1 is W1
// transposed, In rows of Hidden values (toCols). Each layer is one
// vecmath call over the layer's bias, DotCols over w1 and DotRows over W2:
// every sum starts from the bias and adds the neuron's products in
// ascending input order. The activations are one vecmath row each,
// math.Tanh and math.Exp bit for bit: tanh over the hidden sums, and exp
// over the logits less their maximum.
func (m *Model) forward(w1, x []float64, hidden, probs []float64) {
	copy(hidden, m.B1)
	vecmath.DotCols(hidden, w1, x)
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
}

// scratch holds the float64 buffers of epoch and Accuracy between calls,
// so that neither allocates one: training runs on the engine's pool
// goroutines, many models at once.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

// scratchFor returns a pooled buffer and its first n values, n being what
// epoch takes for m, more than Accuracy does, so that a buffer either one
// allocates serves both; the values are stale. Hand the buffer back to
// scratch when done.
func (m *Model) scratchFor() (*[]float64, []float64) {
	n := 2*m.Hidden*m.In + 2*m.Hidden + 2*m.Classes
	p := scratch.Get().(*[]float64)
	if len(*p) < n {
		*p = make([]float64, n)
	}
	return p, (*p)[:n]
}

// toCols copies rows, Hidden rows of In values as W1 and vW1 hold them,
// into cols transposed, In rows of Hidden values: the layout DotCols and
// MomentumCols read, in which one input's weights to every hidden neuron
// are consecutive, so that a pass over the inputs keeps all Hidden sums in
// registers. W1 and vW1 themselves stay row-major, the layout a model is
// read in (Clone, checksums over its fields).
func (m *Model) toCols(cols, rows []float64) {
	for h := range m.Hidden {
		for i, w := range rows[h*m.In : (h+1)*m.In] {
			cols[i*m.Hidden+h] = w
		}
	}
}

// toRows is toCols' inverse: it copies cols, In rows of Hidden values, into
// rows, Hidden rows of In values.
func (m *Model) toRows(rows, cols []float64) {
	for h := range m.Hidden {
		row := rows[h*m.In : (h+1)*m.In]
		for i := range row {
			row[i] = cols[i*m.Hidden+h]
		}
	}
}

// TrainEpoch performs one epoch of SGD with momentum over the examples and
// returns the mean cross-entropy loss (§6: "After an epoch of training, the
// classification accuracy is measured").
func (m *Model) TrainEpoch(examples []Example, lr, momentum float64) float64 {
	return m.epoch(examples, lr, momentum, true)
}

// train performs the epoch TrainEpoch does, to the same weights bit for
// bit, without the loss: a log per example that the MDF's training
// operators would throw away.
func (m *Model) train(examples []Example, lr, momentum float64) {
	m.epoch(examples, lr, momentum, false)
}

// epoch performs one epoch of SGD with momentum over the examples and
// returns the mean cross-entropy loss when withLoss is set, NaN otherwise.
// The loss reads the probabilities and changes nothing else.
//
// The first layer's weights and velocities train transposed (toCols):
// they are copied out of W1 and vW1 once, before the first example, and
// back once, after the last. Each layer's weights move in one momentum
// call per example, MomentumCols over the first layer and MomentumRows over
// W2, after the layer's gradients and its bias updates (which touch no
// weight); the hidden gradient sums the output rows in one AxpyRows call
// before they move. Every value goes through the multiplies and
// subtractions of a per-neuron loop, in its order, so the results are bit
// for bit its own.
func (m *Model) epoch(examples []Example, lr, momentum float64, withLoss bool) float64 {
	// One pooled buffer holds the scratch: the transposed first layer and
	// its velocities, activations, probabilities (which become the output
	// gradients), the hidden gradients (which become lr·g) and the output
	// gradients scaled by lr.
	n := m.Hidden * m.In
	pooled, buf := m.scratchFor()
	w1, buf := cut(buf, n)
	v1, buf := cut(buf, n)
	hidden, buf := cut(buf, m.Hidden)
	dHidden, buf := cut(buf, m.Hidden)
	probs, lrgOut := cut(buf, m.Classes)
	m.toCols(w1, m.W1)
	m.toCols(v1, m.vW1)
	var loss float64
	for _, ex := range examples {
		m.forward(w1, ex.X, hidden, probs)
		if withLoss {
			p := probs[ex.Y]
			if p < 1e-12 {
				p = 1e-12
			}
			loss -= math.Log(p)
		}
		// Output-layer gradient (softmax cross-entropy): dL/dlogit_c, in
		// place of the probabilities.
		g := probs
		g[ex.Y] -= 1
		for c, gc := range g {
			lrgOut[c] = lr * gc
			m.vB2[c] = momentum*m.vB2[c] - lrgOut[c]
			m.B2[c] += m.vB2[c]
		}
		// dHidden sums the W2 rows before their update, as the hidden
		// layer's gradient must.
		clear(dHidden)
		vecmath.AxpyRows(dHidden, m.W2, g)
		vecmath.MomentumRows(m.W2, m.vW2, hidden, lrgOut, momentum)
		// Hidden-layer gradient through tanh; dHidden[h] becomes lr·g, the
		// first layer's step.
		for h, hv := range hidden {
			lrg := lr * (dHidden[h] * (1 - hv*hv))
			dHidden[h] = lrg
			m.vB1[h] = momentum*m.vB1[h] - lrg
			m.B1[h] += m.vB1[h]
		}
		vecmath.MomentumCols(w1, v1, ex.X, dHidden, momentum)
	}
	m.toRows(m.W1, w1)
	m.toRows(m.vW1, v1)
	scratch.Put(pooled)
	if !withLoss {
		return math.NaN()
	}
	return loss / float64(len(examples))
}

// cut splits the first n values off buf, capped so that an append to them
// cannot reach the rest.
func cut(buf []float64, n int) (head, rest []float64) { return buf[:n:n], buf[n:] }

// Accuracy returns the classification accuracy over the examples.
func (m *Model) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	pooled, buf := m.scratchFor()
	defer scratch.Put(pooled)
	w1, buf := cut(buf, m.Hidden*m.In)
	hidden, buf := cut(buf, m.Hidden)
	probs, _ := cut(buf, m.Classes)
	m.toCols(w1, m.W1)
	correct := 0
	for _, ex := range examples {
		m.forward(w1, ex.X, hidden, probs)
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
	// Every X is a cap-clipped window of one array: nothing appends to one.
	out := make([]Example, n)
	xs := make([]float64, n*dims)
	for i := range out {
		c := i % classes
		x := xs[i*dims : (i+1)*dims : (i+1)*dims]
		for j := range x {
			x[j] = protos[c][j] + rng.Normal(0, noise)
		}
		out[i] = Example{X: x, Y: c}
	}
	return out
}
