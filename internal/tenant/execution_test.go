package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pace/internal/query"
)

// oneQuery and cards build the minimal chunk payloads the execution
// tests replay.
func oneQuery(lo float64) []*query.Query { return []*query.Query{testQuery(lo)} }

func cards(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 10
	}
	return out
}

// waitStatus polls until the execution settles (pending drains to 0) or
// the deadline passes.
func waitStatus(t *testing.T, tn *Tenant, token string) ExecutionStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := tn.ExecutionStatus(token)
		if err != nil {
			t.Fatalf("status %s: %v", token, err)
		}
		if st.Pending == 0 || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExecutionOpenIsIdempotent(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{}, ct)

	st, err := tn.OpenExecution("tok-1")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st.Applied != 0 || st.Pending != 0 {
		t.Fatalf("fresh open status %+v, want zeros", st)
	}
	if _, err := tn.SubmitChunk(context.Background(), "tok-1", 0, oneQuery(0.1), cards(1)); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	waitStatus(t, tn, "tok-1")

	// Re-opening the same token must return its progress, not reset it —
	// the whole-stream-retry contract.
	st, err = tn.OpenExecution("tok-1")
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if st.Applied != 1 {
		t.Fatalf("re-open lost progress: %+v", st)
	}
}

func TestSubmitChunkDedupesAndCountsOnce(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{}, ct)
	if _, err := tn.OpenExecution("tok"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // same seq three times
		if _, err := tn.SubmitChunk(context.Background(), "tok", 7, oneQuery(0.2), cards(1)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := waitStatus(t, tn, "tok")
	if st.Applied != 1 || st.Err != nil {
		t.Fatalf("status %+v, want exactly one applied chunk", st)
	}
	if n := ct.executes.Load(); n != 1 {
		t.Fatalf("model retrained %d times for one deduped chunk", n)
	}
}

func TestSubmitChunkUnknownToken(t *testing.T) {
	tn := newTestTenant(t, Spec{}, &countTarget{})
	if _, err := tn.SubmitChunk(context.Background(), "never-opened", 0, oneQuery(0.1), cards(1)); !errors.Is(err, ErrUnknownExecution) {
		t.Fatalf("error %v, want ErrUnknownExecution", err)
	}
	if _, err := tn.ExecutionStatus("never-opened"); !errors.Is(err, ErrUnknownExecution) {
		t.Fatalf("status error %v, want ErrUnknownExecution", err)
	}
}

func TestExecutionRegistryEvictsFinishedLRU(t *testing.T) {
	tn := newTestTenant(t, Spec{}, &countTarget{})
	for i := 0; i < maxExecutions; i++ {
		if _, err := tn.OpenExecution(fmt.Sprintf("tok-%d", i)); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	// Touch tok-0 so tok-1 becomes the LRU victim.
	if _, err := tn.ExecutionStatus("tok-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.OpenExecution("tok-overflow"); err != nil {
		t.Fatalf("open past cap: %v", err)
	}
	if _, err := tn.ExecutionStatus("tok-1"); !errors.Is(err, ErrUnknownExecution) {
		t.Fatalf("LRU victim still present (err %v)", err)
	}
	if _, err := tn.ExecutionStatus("tok-0"); err != nil {
		t.Fatalf("recently touched execution evicted: %v", err)
	}
}

// blockTarget parks every ExecuteWorkload on release, so the execute
// queue can be filled deterministically.
type blockTarget struct {
	countTarget
	release chan struct{}
}

func (b *blockTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	<-b.release
	return b.countTarget.ExecuteWorkload(ctx, qs, cards)
}

func TestSubmitChunkShedUnmarksSeq(t *testing.T) {
	bt := &blockTarget{release: make(chan struct{})}
	var once sync.Once
	unblock := func() { once.Do(func() { close(bt.release) }) }
	tn := NewTenant(Spec{ID: "t"}, bt, testMeta(), Config{
		ExecQueueDepth: 1,
	})
	t.Cleanup(func() {
		unblock()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tn.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	if _, err := tn.OpenExecution("tok"); err != nil {
		t.Fatal(err)
	}

	// Fill the model goroutine + the depth-1 queue, then overflow.
	var acked []int64
	shed := int64(-1)
	for seq := int64(0); seq < 8; seq++ {
		_, err := tn.SubmitChunk(context.Background(), "tok", seq, oneQuery(0.3), cards(1))
		switch {
		case err == nil:
			acked = append(acked, seq)
		case errors.Is(err, ErrQueueFull):
			shed = seq
		default:
			t.Fatalf("seq %d: %v", seq, err)
		}
		if shed >= 0 {
			break
		}
	}
	if shed < 0 {
		t.Fatal("queue never shed; cannot exercise the unmark path")
	}

	// Unblock (a closed channel releases every later execute too), then
	// resubmit the shed seq: it must be acked and applied — the shed must
	// NOT have left a poisoned dedupe mark behind.
	unblock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tn.SubmitChunk(context.Background(), "tok", shed, oneQuery(0.3), cards(1)); err == nil {
			break
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("resubmit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("resubmit kept shedding after the queue drained")
		}
		time.Sleep(time.Millisecond)
	}
	st := waitStatus(t, tn, "tok")
	want := int64(len(acked) + 1)
	if st.Applied != want || st.Err != nil {
		t.Fatalf("status %+v, want %d applied", st, want)
	}
	if n := bt.executes.Load(); n != want {
		t.Fatalf("model retrained %d times, want %d", n, want)
	}
}

// failTarget fails every execute.
type failTarget struct{ countTarget }

func (f *failTarget) ExecuteWorkload(context.Context, []*query.Query, []float64) error {
	return errors.New("model exploded")
}

func TestExecutionFailureIsSticky(t *testing.T) {
	tn := newTestTenant(t, Spec{}, &failTarget{})
	if _, err := tn.OpenExecution("tok"); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.SubmitChunk(context.Background(), "tok", 0, oneQuery(0.4), cards(1)); err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, tn, "tok")
	if st.Err == nil {
		t.Fatal("chunk failure not recorded on the execution")
	}
	// The failure must survive a re-open (the client treats failed as
	// permanent; a reset would make it retry forever).
	st, err := tn.OpenExecution("tok")
	if err != nil {
		t.Fatal(err)
	}
	if st.Err == nil {
		t.Fatal("re-open cleared the failure")
	}
}

func TestDeleteExecutionForgets(t *testing.T) {
	tn := newTestTenant(t, Spec{}, &countTarget{})
	if _, err := tn.OpenExecution("tok"); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.DeleteExecution("tok"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := tn.DeleteExecution("tok"); !errors.Is(err, ErrUnknownExecution) {
		t.Fatalf("double delete error %v, want ErrUnknownExecution", err)
	}
	if _, err := tn.ExecutionStatus("tok"); !errors.Is(err, ErrUnknownExecution) {
		t.Fatalf("status after delete %v, want ErrUnknownExecution", err)
	}
}

func TestExecutionRefusedWhileDraining(t *testing.T) {
	tn := newTestTenant(t, Spec{}, &countTarget{})
	if _, err := tn.OpenExecution("tok"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tn.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.OpenExecution("tok2"); !errors.Is(err, ErrDraining) {
		t.Fatalf("open while draining: %v, want ErrDraining", err)
	}
	if _, err := tn.SubmitChunk(context.Background(), "tok", 0, oneQuery(0.1), cards(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("chunk while draining: %v, want ErrDraining", err)
	}
}
