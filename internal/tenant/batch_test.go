package tenant

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"pace/internal/obs"
	"pace/internal/query"
)

// gateTarget answers like countTarget, but every estimate signals
// entered and then blocks until gate closes, so a test can park the
// model goroutine mid-batch.
type gateTarget struct {
	countTarget
	gate    chan struct{}
	entered chan struct{}
}

func (g *gateTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.countTarget.EstimateContext(ctx, q)
}

// TestBatchTakesQueuedJobsUpToMaxBatch parks the model goroutine on one
// job, queues 100 single-query jobs behind it and releases it. The model
// must batch exactly what is queued, capped at MaxBatch: 64 queries,
// then the remaining 36. Every answer must equal the serial answer bit
// for bit. Batch sizes are read off the tenant's "batch" spans.
func TestBatchTakesQueuedJobsUpToMaxBatch(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	ctx := obs.NewContext(context.Background(), &obs.Telemetry{Tracer: tr})
	gt := &gateTarget{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	tn := NewTenant(Spec{ID: "t"}, gt, testMeta(), Config{MaxBatch: 64})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tn.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})

	const queued = 100
	qs := make([][]*query.Query, queued+1)
	for i := range qs {
		qs[i] = []*query.Query{testQuery(float64(i) / 7 / queued)}
	}
	answers := make([][]float64, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	fire := func(i int) {
		defer wg.Done()
		answers[i], errs[i] = tn.Estimate(ctx, qs[i])
	}
	wg.Add(1)
	go fire(0)
	<-gt.entered // the model goroutine is now parked on the gate
	for i := 1; i < len(qs); i++ {
		wg.Add(1)
		go fire(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(tn.estQ) < queued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	depth := len(tn.estQ)
	close(gt.gate)
	wg.Wait()
	if depth != queued {
		t.Fatalf("%d jobs queued behind the parked one, want %d", depth, queued)
	}

	serial := &countTarget{}
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		want, err := serial.EstimateContext(context.Background(), q[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(answers[i]) != 1 || math.Float64bits(answers[i][0]) != math.Float64bits(want) {
			t.Fatalf("job %d answered %v, serial answer %v", i, answers[i], want)
		}
	}

	// A batch span ends after its replies are sent: drain the tenant so
	// the model goroutine has ended every span before reading the trace.
	if err := tn.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	for _, r := range recs {
		if r.Name == "batch" {
			sizes = append(sizes, r.Attrs["queries"].(float64))
		}
	}
	if want := []float64{1, 64, 36}; !slices.Equal(sizes, want) {
		t.Fatalf("batch sizes %v, want %v (the parked job, then the queue capped at MaxBatch)", sizes, want)
	}
}

// BenchmarkLoneEstimate times one single-query estimate on an otherwise
// idle tenant: the cost a request pays when nothing else is queued.
func BenchmarkLoneEstimate(b *testing.B) {
	tn := NewTenant(Spec{ID: "t"}, &countTarget{}, testMeta(), Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tn.Drain(ctx) //nolint:errcheck // best-effort benchmark cleanup
	}()
	ctx := context.Background()
	qs := []*query.Query{testQuery(0.25)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Estimate(ctx, qs); err != nil {
			b.Fatal(err)
		}
	}
}
