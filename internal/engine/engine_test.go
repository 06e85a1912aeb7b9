package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pace/internal/dataset"
	"pace/internal/query"
)

// tinySpec builds a 4-table chain-plus-branch schema small enough for the
// brute-force oracle: a→b→c and d→b.
func tinySpec() dataset.Spec {
	tab := func(name string, rows int) dataset.TableSpec {
		return dataset.TableSpec{Name: name, Rows: rows, Cols: []dataset.ColumnSpec{
			{Name: "x", Dist: dataset.Uniform},
			{Name: "y", Dist: dataset.Zipf},
		}}
	}
	return dataset.Spec{
		Name:   "tiny",
		Tables: []dataset.TableSpec{tab("a", 12), tab("b", 8), tab("c", 6), tab("d", 10)},
		Edges: []dataset.EdgeSpec{
			{Child: "a", Parent: "b", ZipfSkew: 1},
			{Child: "b", Parent: "c"},
			{Child: "d", Parent: "b", ZipfSkew: 0.5},
		},
	}
}

func tinyEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	ds, err := dataset.Materialize(tinySpec(), dataset.Config{Scale: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return New(ds)
}

func randomQuery(m *query.Meta, adj func(i, j int) bool, rng *rand.Rand) *query.Query {
	for {
		q := query.New(m)
		for t := range q.Tables {
			q.Tables[t] = rng.Float64() < 0.6
		}
		if !q.Connected(adj) {
			continue
		}
		for a := range q.Bounds {
			if rng.Float64() < 0.5 {
				lo := rng.Float64()
				hi := lo + rng.Float64()*(1-lo)
				q.Bounds[a] = [2]float64{lo, hi}
			}
		}
		q.Normalize(m)
		return q
	}
}

func TestCardinalityMatchesBruteForce(t *testing.T) {
	e := tinyEngine(t, 1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		q := randomQuery(e.Dataset().Meta, e.Dataset().Joinable, rng)
		fast, err := e.Cardinality(q)
		if err != nil {
			t.Fatalf("Cardinality: %v", err)
		}
		slow, err := e.BruteForceCardinality(q)
		if err != nil {
			t.Fatalf("BruteForce: %v", err)
		}
		if fast != slow {
			t.Fatalf("query %d: fast=%g brute=%g\nSQL: %s", i, fast, slow,
				q.SQL(e.Dataset().Meta))
		}
	}
}

func TestSingleTableCount(t *testing.T) {
	e := tinyEngine(t, 2)
	m := e.Dataset().Meta
	q := query.New(m)
	q.Tables[0] = true
	q.Bounds[0] = [2]float64{0.25, 0.75}

	card, err := e.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	// Manual count over the column.
	want := 0
	for _, v := range e.Dataset().Tables[0].Cols[0] {
		if v >= 0.25 && v <= 0.75 {
			want++
		}
	}
	if card != float64(want) {
		t.Errorf("cardinality = %g, want %d", card, want)
	}
	if got := e.TableCount(0, q); got != want {
		t.Errorf("TableCount = %d, want %d", got, want)
	}
}

func TestOpenQueryIsCrossProductFree(t *testing.T) {
	// Joining a→b with open bounds must count the child rows exactly
	// once each (every child row references exactly one parent).
	e := tinyEngine(t, 3)
	m := e.Dataset().Meta
	q := query.New(m)
	q.Tables[0], q.Tables[1] = true, true
	card, err := e.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if card != float64(e.Dataset().Tables[0].Rows) {
		t.Errorf("open a⋈b = %g, want %d", card, e.Dataset().Tables[0].Rows)
	}
}

func TestDisconnectedRejected(t *testing.T) {
	e := tinyEngine(t, 4)
	m := e.Dataset().Meta
	q := query.New(m)
	q.Tables[0], q.Tables[2] = true, true // a and c without b
	if _, err := e.Cardinality(q); err != ErrNotConnected {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
	empty := query.New(m)
	if _, err := e.Cardinality(empty); err != ErrNotConnected {
		t.Errorf("empty query err = %v, want ErrNotConnected", err)
	}
}

func TestWrongSlotCount(t *testing.T) {
	e := tinyEngine(t, 5)
	q := &query.Query{Tables: []bool{true}, Bounds: [][2]float64{{0, 1}}}
	if _, err := e.Cardinality(q); err == nil {
		t.Error("expected error for mismatched table slots")
	}
}

func TestSelectMask(t *testing.T) {
	e := tinyEngine(t, 6)
	m := e.Dataset().Meta
	q := query.New(m)
	q.Tables[1] = true
	lo, _ := m.Attrs(1)
	q.Bounds[lo] = [2]float64{0, 0.5}
	mask := e.SelectMask(1, q)
	col := e.Dataset().Tables[1].Cols[0]
	for r, ok := range mask {
		want := col[r] <= 0.5
		if ok != want {
			t.Fatalf("mask[%d] = %v, want %v (value %g)", r, ok, want, col[r])
		}
	}
}

func TestEmptyPredicateRangeGivesZero(t *testing.T) {
	e := tinyEngine(t, 7)
	m := e.Dataset().Meta
	q := query.New(m)
	q.Tables[0] = true
	lo, _ := m.Attrs(0)
	// Range [0.9999, 0.99991] will almost surely be empty over 12 rows;
	// verify against the brute count either way.
	q.Bounds[lo] = [2]float64{0.9999, 0.99991}
	card, err := e.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := e.BruteForceCardinality(q)
	if card != slow {
		t.Errorf("card = %g, brute = %g", card, slow)
	}
}

// Property: cardinality is monotone — widening any predicate never
// decreases the count.
func TestCardinalityMonotoneProperty(t *testing.T) {
	e := tinyEngine(t, 8)
	m := e.Dataset().Meta
	rng := rand.New(rand.NewSource(1234))
	f := func() bool {
		q := randomQuery(m, e.Dataset().Joinable, rng)
		narrow, err := e.Cardinality(q)
		if err != nil {
			return false
		}
		wide := q.Clone()
		for a := range wide.Bounds {
			b := wide.Bounds[a]
			wide.Bounds[a] = [2]float64{b[0] * 0.5, b[1] + (1-b[1])*0.5}
		}
		wide.Normalize(m)
		w, err := e.Cardinality(wide)
		if err != nil {
			return false
		}
		return w >= narrow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: join with a fully open FK-parent never changes the count.
func TestOpenParentJoinInvariant(t *testing.T) {
	e := tinyEngine(t, 9)
	m := e.Dataset().Meta
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		// Query on a alone vs a⋈b with b unconstrained and open bounds.
		q := query.New(m)
		q.Tables[0] = true
		lo, hi := m.Attrs(0)
		for a := lo; a < hi; a++ {
			if rng.Float64() < 0.7 {
				l := rng.Float64()
				q.Bounds[a] = [2]float64{l, l + rng.Float64()*(1-l)}
			}
		}
		q.Normalize(m)
		alone, err := e.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		joined := q.Clone()
		joined.Tables[1] = true
		jc, err := e.Cardinality(joined)
		if err != nil {
			t.Fatal(err)
		}
		if alone != jc {
			t.Fatalf("iteration %d: alone=%g joined=%g", i, alone, jc)
		}
	}
}

func TestLargeDatasetCardinalitySmoke(t *testing.T) {
	ds, err := dataset.Build("tpch", dataset.Config{Scale: 0.2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds)
	m := ds.Meta
	q := query.New(m)
	q.Tables[ds.TableIndex("lineitem")] = true
	q.Tables[ds.TableIndex("orders")] = true
	q.Tables[ds.TableIndex("customer")] = true
	card, err := e.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(ds.Tables[ds.TableIndex("lineitem")].Rows)
	if card != want {
		t.Errorf("open lineitem⋈orders⋈customer = %g, want %g", card, want)
	}
}

// imdbEngine builds an imdb world at the given scale: 21 tables, mostly
// FK children around one title table, so most joins exercise the
// FK-child sums.
func imdbEngine(t testing.TB, scale float64) *Engine {
	t.Helper()
	ds, err := dataset.Build("imdb", dataset.Config{Scale: scale, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return New(ds)
}

// TestCardinalityBitsMatchReference pins the arena kernel to the
// mask-based DP it replaced: over thousands of random connected queries,
// on both join shapes, the two return the same float64 bits.
func TestCardinalityBitsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"tiny", tinyEngine(t, 13)}, {"imdb", imdbEngine(t, 0.05)}} {
		rng := rand.New(rand.NewSource(2024))
		ds := tc.e.Dataset()
		for i := 0; i < 2000; i++ {
			q := randomQuery(ds.Meta, ds.Joinable, rng)
			got, err := tc.e.Cardinality(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", tc.name, i, err)
			}
			want, _ := refCardinality(tc.e, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s query %d: got %v, reference %v\nSQL: %s",
					tc.name, i, got, want, q.SQL(ds.Meta))
			}
			if tab := rng.Intn(len(ds.Tables)); tc.e.TableCount(tab, q) != countTrue(refSelectMask(tc.e, tab, q)) {
				t.Fatalf("%s query %d: TableCount(%d) differs from the reference mask", tc.name, i, tab)
			}
		}
	}
}

// TestCardinalityAfterGrowMatchesReference labels queries, grows the
// dataset in place (as the drift study does between labeling rounds), and
// checks that the same engine's answers, now over the grown tables, still
// carry the reference DP's bits: arena vectors sized for the old row
// counts must not survive the growth.
func TestCardinalityAfterGrowMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"tiny", tinyEngine(t, 14)}, {"imdb", imdbEngine(t, 0.05)}} {
		rng := rand.New(rand.NewSource(31))
		ds := tc.e.Dataset()
		check := func(stage string) {
			for i := 0; i < 200; i++ {
				q := randomQuery(ds.Meta, ds.Joinable, rng)
				got, err := tc.e.Cardinality(q)
				if err != nil {
					t.Fatalf("%s %s query %d: %v", tc.name, stage, i, err)
				}
				want, _ := refCardinality(tc.e, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s query %d: got %v, reference %v\nSQL: %s",
						tc.name, stage, i, got, want, q.SQL(ds.Meta))
				}
			}
		}
		check("before growth")
		ds.Grow(0.3, 0.1, rand.New(rand.NewSource(32)))
		check("after growth")
	}
}

func countTrue(mask []bool) int {
	n := 0
	for _, ok := range mask {
		if ok {
			n++
		}
	}
	return n
}

// TestCardinalityAllocatesNothing checks the steady state: once the
// arena has met every table, a call allocates nothing.
func TestCardinalityAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so the count is not the normal build's")
	}
	e := imdbEngine(t, 0.05)
	ds := e.Dataset()
	rng := rand.New(rand.NewSource(5))
	qs := make([]*query.Query, 32)
	for i := range qs {
		qs[i] = randomQuery(ds.Meta, ds.Joinable, rng)
	}
	all := query.New(ds.Meta)
	for tab := range all.Tables {
		all.Tables[tab] = true
	}
	if _, err := e.Cardinality(all); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Cardinality(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Cardinality allocates %v times per call in steady state, want 0", allocs)
	}
}

// TestCardinalityConcurrentMatchesSerial shares one Engine between
// goroutines, as Pool workers do, and checks every answer against the
// serial one (run under -race, it also checks the arena pool).
func TestCardinalityConcurrentMatchesSerial(t *testing.T) {
	e := imdbEngine(t, 0.05)
	ds := e.Dataset()
	rng := rand.New(rand.NewSource(8))
	qs := make([]*query.Query, 200)
	want := make([]float64, len(qs))
	for i := range qs {
		qs[i] = randomQuery(ds.Meta, ds.Joinable, rng)
		var err error
		if want[i], err = e.Cardinality(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range qs {
				i := (k + g*len(qs)/goroutines) % len(qs)
				got, err := e.Cardinality(qs[i])
				if err != nil || math.Float64bits(got) != math.Float64bits(want[i]) {
					errs <- fmt.Sprintf("goroutine %d query %d: got %v (%v), serial %v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// BenchmarkCardinality labels random connected queries over imdb at the
// campaign benchmark's scale (0.5), the oracle call the attack makes for
// every generated candidate.
func BenchmarkCardinality(b *testing.B) {
	e := imdbEngine(b, 0.5)
	ds := e.Dataset()
	rng := rand.New(rand.NewSource(3))
	qs := make([]*query.Query, 64)
	for i := range qs {
		qs[i] = randomQuery(ds.Meta, ds.Joinable, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Cardinality(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
