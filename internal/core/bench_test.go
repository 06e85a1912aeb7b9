package core

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"pace/internal/engine"
	"pace/internal/generator"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/resilience"
)

// slowOracle models the remote COUNT(*) channel: every call pays a fixed
// round-trip latency before the local engine answers. Latency-bound, not
// CPU-bound — exactly the regime the worker pool exists for.
func slowOracle(inner Oracle, rtt time.Duration) Oracle {
	return func(ctx context.Context, q *query.Query) (float64, error) {
		if err := resilience.Sleep(ctx, rtt); err != nil {
			return 0, err
		}
		return inner(ctx, q)
	}
}

// benchRTT is the simulated oracle round trip. 200µs is conservative for
// a same-datacenter DBMS; real WAN round trips are 10-100× longer, which
// widens (never narrows) the parallel advantage.
const benchRTT = 200 * time.Microsecond

// BenchmarkParallelLabeling measures the oracle labeling fan-out — the
// hot path of every training loop — over one 256-query batch at several
// worker counts. workers=1 is the serial baseline (the pre-pool code
// path); the speedup at workers=N is latency overlap, so it holds even
// on a single core.
func BenchmarkParallelLabeling(b *testing.B) {
	f := newFixture(b, 21)
	oracle := slowOracle(EngineOracle(f.wgen), benchRTT)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable,
				generator.Config{Hidden: 16, LR: 5e-3}, f.rng)
			tr := NewTrainer(f.sur, gen, nil, oracle, f.test, TrainerConfig{Batch: 256}, f.rng)
			if w > 1 {
				tr.Pool = engine.PoolFor(w)
			} // w == 1: nil pool, the serial baseline
			batch := tr.Gen.Generate(256, f.rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.labelCards(bgCtx, batch)
			}
		})
	}
}

// BenchmarkTrainAccelerated is the end-to-end number: a short accelerated
// attack (2 outer × 2 inner, batch 32) against the latency-bound oracle,
// serial vs 8 workers. The training trajectory is bit-identical in both
// configurations (see TestTrainDeterministicAcrossWorkerCounts); only
// the wall clock differs.
func BenchmarkTrainAccelerated(b *testing.B) {
	f := newFixture(b, 22)
	oracle := slowOracle(EngineOracle(f.wgen), benchRTT)
	for _, w := range []int{0, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable,
					generator.Config{Hidden: 16, LR: 5e-3}, f.rng)
				tr := NewTrainer(f.sur, gen, nil, oracle, f.test,
					TrainerConfig{Batch: 32, InnerIters: 2, OuterIters: 2, TestBatch: 16}, f.rng)
				tr.Pool = engine.PoolFor(w)
				if err := tr.TrainAccelerated(bgCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead prices the observability layer on the
// end-to-end scenario of BENCH.json's legacy
// parallel/end_to_end_train_accelerated cells (2 outer × 2 inner, batch 32,
// 200µs oracle RTT). "disabled" is the instrumented code with nil
// telemetry — all instrument calls degrade to nil checks, and the
// latency clock reads are skipped entirely — and must stay within 5% of
// BenchmarkTrainAccelerated. "enabled" adds a live registry plus a
// tracer writing to io.Discard, the full-telemetry worst case. Results
// are recorded in BENCH.json's legacy obs/end_to_end_train_accelerated
// cells.
func BenchmarkTelemetryOverhead(b *testing.B) {
	f := newFixture(b, 22)
	oracle := slowOracle(EngineOracle(f.wgen), benchRTT)
	run := func(b *testing.B, tel *obs.Telemetry, w int) {
		ctx := obs.NewContext(bgCtx, tel)
		for i := 0; i < b.N; i++ {
			gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable,
				generator.Config{Hidden: 16, LR: 5e-3}, f.rng)
			tr := NewTrainer(f.sur, gen, nil, oracle, f.test,
				TrainerConfig{Batch: 32, InnerIters: 2, OuterIters: 2, TestBatch: 16}, f.rng)
			tr.Instrument(tel.Registry())
			tr.Pool = engine.PoolFor(w).Instrument(tel.Registry())
			if err := tr.TrainAccelerated(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, w := range []int{0, 8} {
		b.Run(fmt.Sprintf("disabled/workers=%d", w), func(b *testing.B) {
			run(b, nil, w)
		})
		b.Run(fmt.Sprintf("enabled/workers=%d", w), func(b *testing.B) {
			run(b, &obs.Telemetry{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(io.Discard)}, w)
		})
	}
}

// BenchmarkOracleCacheMemoization measures what the LRU memo saves when
// the generator revisits a query: a cache hit skips the round trip
// entirely, so the hit path should be ~RTT faster than the miss path.
func BenchmarkOracleCacheMemoization(b *testing.B) {
	f := newFixture(b, 23)
	oracle := slowOracle(EngineOracle(f.wgen), benchRTT)
	cache := engine.NewOracleCache(engine.Labeler(oracle), 1024, nil)
	gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable,
		generator.Config{Hidden: 16, LR: 5e-3}, f.rng)
	batch := gen.Generate(64, f.rng)

	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := engine.NewOracleCache(engine.Labeler(oracle), 1024, nil)
			for _, s := range batch {
				fresh.Label(bgCtx, s.Query)
			}
		}
	})
	// Warm the shared cache once, then measure pure hits.
	for _, s := range batch {
		cache.Label(bgCtx, s.Query)
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range batch {
				cache.Label(bgCtx, s.Query)
			}
		}
	})
}
