package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is a differentiable vector→vector map. Backward must be called
// immediately after the Forward whose cached state it consumes; it
// accumulates parameter gradients and returns dL/dx.
type Layer interface {
	Module
	Forward(x []float64) []float64
	Backward(dy []float64) []float64
	// OutSize reports the output dimension given an input dimension.
	OutSize(in int) int
}

// Dense is a fully connected affine layer y = Wx + b.
type Dense struct {
	W *Param // out×in
	B *Param // out×1
	x []float64
}

// NewDense creates a Glorot-initialized in→out dense layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: NewParam(name+".W", out, in),
		B: NewParam(name+".b", out, 1),
	}
	d.W.GlorotInit(rng)
	return d
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutSize implements Layer.
func (d *Dense) OutSize(int) int { return d.W.Rows }

// Forward computes Wx + b. It walks four output rows at a time, one
// accumulator per row, so the rows' dependency chains overlap; each row
// still sums w[r][c]·x[c] over c = 0…cols-1 in order from +0, exactly as
// Dot does, so every output keeps its bits.
func (d *Dense) Forward(x []float64) []float64 {
	cols := d.W.Cols
	if len(x) != cols {
		panic(fmt.Sprintf("nn: Dense %s input %d, want %d", d.W.Name, len(x), cols))
	}
	d.x = x
	w, bias := d.W.W, d.B.W
	out := make([]float64, d.W.Rows)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		// Reslicing to len(x) lets the compiler drop the inner bounds checks.
		w0 := w[r*cols : (r+1)*cols][:len(x)]
		w1 := w[(r+1)*cols : (r+2)*cols][:len(x)]
		w2 := w[(r+2)*cols : (r+3)*cols][:len(x)]
		w3 := w[(r+3)*cols : (r+4)*cols][:len(x)]
		var s0, s1, s2, s3 float64
		for c, xc := range x {
			s0 += w0[c] * xc
			s1 += w1[c] * xc
			s2 += w2[c] * xc
			s3 += w3[c] * xc
		}
		out[r] = s0 + bias[r]
		out[r+1] = s1 + bias[r+1]
		out[r+2] = s2 + bias[r+2]
		out[r+3] = s3 + bias[r+3]
	}
	for ; r < len(out); r++ {
		out[r] = Dot(w[r*cols:(r+1)*cols], x) + bias[r]
	}
	return out
}

// Backward accumulates dL/dW, dL/db and returns dL/dx, updating a row's
// dW and dx in one pass over the columns. Rows whose upstream gradient is
// exactly ±0 (dead ReLU units, dropped units) are skipped: their terms are
// ±0 for finite weights and inputs, and adding ±0 to a G, B.G or dx that
// started at +0 and only ever had terms added never changes its bits
// under round-to-nearest.
func (d *Dense) Backward(dy []float64) []float64 {
	cols := d.W.Cols
	x := d.x[:cols]
	dx := make([]float64, cols)
	for r, g := range dy {
		if g == 0 {
			continue
		}
		row := d.W.W[r*cols : (r+1)*cols][:len(x)]
		grow := d.W.G[r*cols : (r+1)*cols][:len(x)]
		for c, xc := range x {
			grow[c] += g * xc
			dx[c] += g * row[c]
		}
		d.B.G[r] += g
	}
	return dx
}

// Activation applies an element-wise nonlinearity.
type Activation struct {
	kind activationKind
	y    []float64 // cached outputs
	x    []float64 // cached inputs (needed by ReLU/LeakyReLU)
}

type activationKind int

const (
	actSigmoid activationKind = iota
	actTanh
	actReLU
	actLeakyReLU
)

// NewSigmoid returns an element-wise logistic activation.
func NewSigmoid() *Activation { return &Activation{kind: actSigmoid} }

// NewTanh returns an element-wise tanh activation.
func NewTanh() *Activation { return &Activation{kind: actTanh} }

// NewReLU returns an element-wise rectified-linear activation.
func NewReLU() *Activation { return &Activation{kind: actReLU} }

// NewLeakyReLU returns max(x, 0.01x).
func NewLeakyReLU() *Activation { return &Activation{kind: actLeakyReLU} }

// Params implements Module; activations are parameter-free.
func (a *Activation) Params() []*Param { return nil }

// OutSize implements Layer.
func (a *Activation) OutSize(in int) int { return in }

// Forward applies the nonlinearity element-wise.
func (a *Activation) Forward(x []float64) []float64 {
	a.x = x
	out := make([]float64, len(x))
	switch a.kind {
	case actSigmoid:
		for i, v := range x {
			out[i] = Sigmoid(v)
		}
	case actTanh:
		for i, v := range x {
			out[i] = math.Tanh(v)
		}
	case actReLU:
		for i, v := range x {
			if v > 0 {
				out[i] = v
			}
		}
	case actLeakyReLU:
		for i, v := range x {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0.01 * v
			}
		}
	}
	a.y = out
	return out
}

// Backward returns dL/dx for the cached activation.
func (a *Activation) Backward(dy []float64) []float64 {
	dx := make([]float64, len(dy))
	switch a.kind {
	case actSigmoid:
		for i, g := range dy {
			dx[i] = g * SigmoidPrime(a.y[i])
		}
	case actTanh:
		for i, g := range dy {
			dx[i] = g * (1 - a.y[i]*a.y[i])
		}
	case actReLU:
		for i, g := range dy {
			if a.x[i] > 0 {
				dx[i] = g
			}
		}
	case actLeakyReLU:
		for i, g := range dy {
			if a.x[i] > 0 {
				dx[i] = g
			} else {
				dx[i] = 0.01 * g
			}
		}
	}
	return dx
}
