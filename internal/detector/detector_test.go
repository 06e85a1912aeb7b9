package detector

import (
	"math/rand"
	"testing"

	"pace/internal/nn"
)

// clusteredEncodings draws encodings concentrated in a small region —
// a stand-in for a coherent historical workload.
func clusteredEncodings(n, dim int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = 0.4 + 0.2*rng.Float64() // mass in [0.4, 0.6]
		}
		out[i] = v
	}
	return out
}

// outlierEncodings draws encodings far from the cluster.
func outlierEncodings(n, dim int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			if rng.Float64() < 0.5 {
				v[j] = rng.Float64() * 0.05
			} else {
				v[j] = 0.95 + rng.Float64()*0.05
			}
		}
		out[i] = v
	}
	return out
}

func TestTrainingReducesReconError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := 12
	d := New(dim, Config{Hidden: 16, Epochs: 30}, rng)
	history := clusteredEncodings(300, dim, rng)

	before := meanRecon(d, history)
	d.Train(history)
	after := meanRecon(d, history)
	if after >= before {
		t.Errorf("training did not reduce reconstruction error: %g → %g", before, after)
	}
}

func TestOutliersScoreHigher(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 12
	d := New(dim, Config{Hidden: 16, Epochs: 40}, rng)
	history := clusteredEncodings(400, dim, rng)
	d.Train(history)

	normal := meanRecon(d, clusteredEncodings(50, dim, rng))
	abnormal := meanRecon(d, outlierEncodings(50, dim, rng))
	if abnormal <= normal {
		t.Errorf("outliers (%g) do not score above normal (%g)", abnormal, normal)
	}
}

func TestIsAbnormalThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 10
	d := New(dim, Config{Hidden: 16, Epochs: 40, Threshold: 0.02}, rng)
	history := clusteredEncodings(400, dim, rng)
	d.Train(history)

	flaggedNormal := 0
	for _, v := range clusteredEncodings(60, dim, rng) {
		if d.IsAbnormal(v) {
			flaggedNormal++
		}
	}
	flaggedOutlier := 0
	outliers := outlierEncodings(60, dim, rng)
	for _, v := range outliers {
		if d.IsAbnormal(v) {
			flaggedOutlier++
		}
	}
	if flaggedOutlier <= flaggedNormal {
		t.Errorf("outliers flagged %d/60, normals flagged %d/60", flaggedOutlier, flaggedNormal)
	}
}

func TestReconGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 8
	d := New(dim, Config{Hidden: 12, Epochs: 5}, rng)
	d.Train(clusteredEncodings(100, dim, rng))

	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	_, dv := d.ReconGrad(v)
	numeric := nn.NumericInputGrad(func() float64 { return d.ReconError(v) }, v, 1e-6)
	if diff := nn.MaxAbsDiff(dv, numeric); diff > 1e-5 {
		t.Errorf("ReconGrad mismatch vs finite differences: %g", diff)
	}
}

func TestReconGradDoesNotTouchParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 8
	d := New(dim, Config{Hidden: 12}, rng)
	before := nn.FlattenParams(d.params)
	v := make([]float64, dim)
	d.ReconGrad(v)
	if nn.MaxAbsDiff(before, nn.FlattenParams(d.params)) != 0 {
		t.Error("ReconGrad modified detector parameters")
	}
	for _, p := range d.params {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("ReconGrad left nonzero parameter gradients")
			}
		}
	}
}

func TestGradDescentOnInputReducesError(t *testing.T) {
	// The confrontation mechanism: moving a query along −ReconGrad must
	// reduce its reconstruction error.
	rng := rand.New(rand.NewSource(6))
	dim := 10
	d := New(dim, Config{Hidden: 16, Epochs: 40}, rng)
	d.Train(clusteredEncodings(300, dim, rng))

	v := outlierEncodings(1, dim, rng)[0]
	before := d.ReconError(v)
	for i := 0; i < 50; i++ {
		_, dv := d.ReconGrad(v)
		nn.AddScaled(v, -0.1, dv)
	}
	after := d.ReconError(v)
	if after >= before {
		t.Errorf("descending the recon gradient did not help: %g → %g", before, after)
	}
}

func TestCalibrateThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := 8
	d := New(dim, Config{Hidden: 12, Epochs: 10}, rng)
	history := clusteredEncodings(200, dim, rng)
	d.Train(history)
	d.CalibrateThreshold(history, 95)
	flagged := 0
	for _, v := range history {
		if d.IsAbnormal(v) {
			flagged++
		}
	}
	frac := float64(flagged) / float64(len(history))
	if frac > 0.10 {
		t.Errorf("after 95th-percentile calibration, %.0f%% of history flagged", frac*100)
	}
}

func TestSetThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := New(4, Config{}, rng)
	d.SetThreshold(0.42)
	if d.Threshold() != 0.42 {
		t.Errorf("Threshold = %g, want 0.42", d.Threshold())
	}
}

func TestTrainEmptyHistoryIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := New(4, Config{}, rng)
	before := nn.FlattenParams(d.params)
	d.Train(nil)
	d.CalibrateThreshold(nil, 95)
	if nn.MaxAbsDiff(before, nn.FlattenParams(d.params)) != 0 {
		t.Error("empty training changed parameters")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Latent != 6 || c.Threshold != 0.05 || c.Epochs != 100 {
		t.Errorf("defaults = %+v", c)
	}
}

func meanRecon(d *Detector, vs [][]float64) float64 {
	var s float64
	for _, v := range vs {
		s += d.ReconError(v)
	}
	return s / float64(len(vs))
}
