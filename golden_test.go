package pace

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pace/internal/ce"
	"pace/internal/core"
	"pace/internal/experiments"
	"pace/internal/metrics"
	"pace/internal/workload"
)

// Golden values of the seed-7 dmv/FCN attack below. Every other
// determinism test compares two runs of the same code, so a kernel change
// that moves a single rounding would pass them all; this pin compares
// against fixed numbers instead. The kernels in internal/nn and
// internal/engine keep each output element's summation order, so these
// bits must not move when they are rewritten for speed.
const (
	goldenDegradationBits = 0x400aeca95cf6b225 // 3.365557409552155
	goldenAfterMeanBits   = 0x4023f100a4c5fe2d // 9.970708035630276
	goldenOracleCalls     = 3718
)

// TestGoldenCampaignPin runs one short in-process campaign at a fixed
// seed and checks the bit patterns of its degradation and mean poisoned
// test Q-error, and its exact oracle-call count.
func TestGoldenCampaignPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; on %s the compiler may fuse multiply-add, which rounds differently", runtime.GOARCH)
	}
	const seed = 7
	cfg := experiments.Config{Seed: seed}.WithDefaults()
	w, err := experiments.NewWorld("dmv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := w.NewBlackBox(ce.FCN, 1)
	qs := workload.Queries(w.Test)
	cards := experiments.Cards(w.Test)
	before := metrics.Mean(target.QErrors(qs, cards))

	fcn := ce.FCN
	runCfg := core.Config{
		NumPoison: cfg.NumPoison,
		Workers:   2,
		ForceType: &fcn,
		Generator: w.GenCfg(),
		Trainer:   w.TrainerCfg(),
	}
	runCfg.Surrogate.Queries = cfg.TrainQueries
	runCfg.Surrogate.HP = w.HP()
	runCfg.Surrogate.Train = w.TrainCfg()
	c := core.Campaign{Target: target, Workload: w.WGen, Test: w.Test, History: w.History, Config: runCfg, Seed: seed}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Mean(target.QErrors(qs, cards))
	deg := after / before

	if got := math.Float64bits(deg); got != goldenDegradationBits {
		t.Errorf("degradation = %v (bits %#x), golden bits %#x (%v)",
			deg, got, uint64(goldenDegradationBits), math.Float64frombits(goldenDegradationBits))
	}
	if got := math.Float64bits(after); got != goldenAfterMeanBits {
		t.Errorf("poisoned test Q-error mean = %v (bits %#x), golden bits %#x (%v)",
			after, got, uint64(goldenAfterMeanBits), math.Float64frombits(goldenAfterMeanBits))
	}
	if got := res.Stats.OracleCalls; got != goldenOracleCalls {
		t.Errorf("oracle calls = %d, golden %d", got, goldenOracleCalls)
	}
}
