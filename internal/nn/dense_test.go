package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refDenseForward and refDenseBackward are the per-row Dot / AddScaled
// loops Dense shipped before its row-blocked kernel, kept verbatim as a
// test reference. The kernel keeps every output element's summation
// order, so it must match these to the bit.
func refDenseForward(d *Dense, x []float64) []float64 {
	out := make([]float64, d.W.Rows)
	for r := 0; r < d.W.Rows; r++ {
		row := d.W.W[r*d.W.Cols : (r+1)*d.W.Cols]
		out[r] = Dot(row, x) + d.B.W[r]
	}
	return out
}

func refDenseBackward(d *Dense, x, dy []float64) []float64 {
	dx := make([]float64, d.W.Cols)
	for r, g := range dy {
		row := d.W.W[r*d.W.Cols : (r+1)*d.W.Cols]
		grow := d.W.G[r*d.W.Cols : (r+1)*d.W.Cols]
		AddScaled(grow, g, x)
		AddScaled(dx, g, row)
		d.B.G[r] += g
	}
	return dx
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randGrad draws an upstream gradient in which about a third of the
// entries are an exact +0 or -0, the shape dead ReLU and dropped units
// hand back.
func randGrad(n int, rng *rand.Rand) []float64 {
	dy := make([]float64, n)
	for i := range dy {
		switch rng.Intn(6) {
		case 0:
			dy[i] = 0
		case 1:
			dy[i] = math.Copysign(0, -1)
		default:
			dy[i] = rng.NormFloat64()
		}
	}
	return dy
}

// TestDenseKernelBitsMatchReference runs the kernel and the reference on
// twin layers over random shapes — rows 1–9, so both the 4-row blocks and
// the remainder rows are hit, and cols 1–130 — and accumulates gradients
// over several samples before comparing out, dx, W.G and B.G bit for bit.
func TestDenseKernelBitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(9), 1+rng.Intn(130)
		d := NewDense("k", cols, rows, rng)
		ref := NewDense("r", cols, rows, rng)
		copy(ref.W.W, d.W.W)
		for i := range d.B.W {
			d.B.W[i] = rng.NormFloat64()
		}
		copy(ref.B.W, d.B.W)
		for s := 0; s < 1+rng.Intn(5); s++ {
			x := make([]float64, cols)
			for i := range x {
				if rng.Intn(4) > 0 { // leave some exact zeros, as after a ReLU
					x[i] = rng.NormFloat64()
				}
			}
			dy := randGrad(rows, rng)
			out, wantOut := d.Forward(x), refDenseForward(ref, x)
			if !sameBits(out, wantOut) {
				t.Fatalf("trial %d (%d×%d) sample %d: Forward differs from reference", trial, rows, cols, s)
			}
			dx, wantDx := d.Backward(dy), refDenseBackward(ref, x, dy)
			if !sameBits(dx, wantDx) {
				t.Fatalf("trial %d (%d×%d) sample %d: dx differs from reference", trial, rows, cols, s)
			}
		}
		if !sameBits(d.W.G, ref.W.G) || !sameBits(d.B.G, ref.B.G) {
			t.Fatalf("trial %d (%d×%d): accumulated W.G or B.G differs from reference", trial, rows, cols)
		}
	}
}

// denseBench builds an in→out layer and an input with the ReLU-like
// share of exact zeros the detector's hidden layers see.
func denseBench(in, out int) (*Dense, []float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("b", in, out, rng)
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.Float64()
	}
	return d, x, randGrad(out, rng)
}

// The two shapes below are the VAE detector's: its 127-dimensional imdb
// encoding into the 48-wide hidden layer, and hidden to hidden.
var denseBenchShapes = []struct {
	name    string
	in, out int
}{{"127x48", 127, 48}, {"48x48", 48, 48}}

func BenchmarkDenseForward(b *testing.B) {
	for _, s := range denseBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			d, x, _ := denseBench(s.in, s.out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x)
			}
		})
	}
}

func BenchmarkDenseBackward(b *testing.B) {
	for _, s := range denseBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			d, x, dy := denseBench(s.in, s.out)
			d.Forward(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Backward(dy)
			}
		})
	}
}
