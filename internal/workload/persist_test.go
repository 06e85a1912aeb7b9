package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pace/internal/query"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := newGen(t, "tpch", 11)
	w := g.Random(25)

	var buf bytes.Buffer
	if err := Save(&buf, g.DS.Meta, w); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, g.DS.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w) {
		t.Fatalf("got %d queries, want %d", len(got), len(w))
	}
	for i := range w {
		if got[i].Card != w[i].Card {
			t.Fatalf("query %d card %g != %g", i, got[i].Card, w[i].Card)
		}
		if !reflect.DeepEqual(got[i].Q, w[i].Q) {
			t.Fatalf("query %d does not round-trip:\n got %+v\nwant %+v", i, got[i].Q, w[i].Q)
		}
	}
}

func TestLoadRejectsBadIndexes(t *testing.T) {
	g := newGen(t, "dmv", 12)
	badTable := `[{"tables":[7],"bounds":[],"card":1}]`
	if _, err := Load(strings.NewReader(badTable), g.DS.Meta); err == nil {
		t.Error("out-of-range table accepted")
	}
	badAttr := `[{"tables":[0],"bounds":[[99,0.1,0.2]],"card":1}]`
	if _, err := Load(strings.NewReader(badAttr), g.DS.Meta); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if _, err := Load(strings.NewReader("not json"), g.DS.Meta); err == nil {
		t.Error("garbage accepted")
	}
}

// TestRoundTripAdversarialBounds pins the persistence behavior at the
// numeric edges a fuzzer (or a poisoning attack crafting extreme
// predicates) can produce:
//
//   - a fully open [0, 1] predicate is dropped on Save and reproduced
//     exactly by Load;
//   - [-0, 1] is canonicalized: -0 > 0 is false, so Save treats it as
//     open and Load reproduces +0 — the bit pattern does NOT survive,
//     by design;
//   - a -0 lower bound on a non-open predicate survives the JSON trip
//     bit-exactly (clamp01 passes -0 through: -0 < 0 is false);
//   - the smallest subnormal (5e-324) survives bit-exactly, since Go's
//     JSON float formatting round-trips every finite float64.
func TestRoundTripAdversarialBounds(t *testing.T) {
	g := newGen(t, "dmv", 17)
	m := g.DS.Meta

	negZero := math.Copysign(0, -1)
	subnormal := math.SmallestNonzeroFloat64 // 5e-324

	q := query.New(m)
	q.Tables[0] = true
	q.Bounds[0] = [2]float64{0, 1}         // open: dropped, reproduced
	q.Bounds[1] = [2]float64{negZero, 1}   // canonicalized to [+0, 1]
	q.Bounds[2] = [2]float64{negZero, 0.5} // -0 must survive
	q.Bounds[3] = [2]float64{subnormal, 1} // subnormal must survive
	q.Bounds[4] = [2]float64{0, subnormal} // degenerate sliver at 0
	w := []Labeled{{Q: q, Card: 1}}

	var buf bytes.Buffer
	if err := Save(&buf, m, w); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	got, err := Load(strings.NewReader(raw), m)
	if err != nil {
		t.Fatal(err)
	}
	b := got[0].Q.Bounds

	if b[0] != [2]float64{0, 1} {
		t.Errorf("open bound came back as %v", b[0])
	}
	if math.Signbit(b[1][0]) {
		t.Errorf("[-0, 1] must canonicalize to +0, got -0")
	}
	if !math.Signbit(b[2][0]) || b[2][1] != 0.5 {
		t.Errorf("[-0, 0.5] lost its -0: got %v (signbit %v)", b[2], math.Signbit(b[2][0]))
	}
	if math.Float64bits(b[3][0]) != math.Float64bits(subnormal) {
		t.Errorf("subnormal lower bound: got bits %x, want %x",
			math.Float64bits(b[3][0]), math.Float64bits(subnormal))
	}
	if math.Float64bits(b[4][1]) != math.Float64bits(subnormal) {
		t.Errorf("subnormal upper bound: got bits %x, want %x",
			math.Float64bits(b[4][1]), math.Float64bits(subnormal))
	}

	// A second trip must be a fixed point: Save(Load(x)) == x.
	var buf2 bytes.Buffer
	if err := Save(&buf2, m, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != raw {
		t.Errorf("persistence is not idempotent:\nfirst:  %s\nsecond: %s", raw, buf2.String())
	}
}

func TestSaveOmitsOpenBounds(t *testing.T) {
	g := newGen(t, "dmv", 13)
	w := g.Random(5)
	var buf bytes.Buffer
	if err := Save(&buf, g.DS.Meta, w); err != nil {
		t.Fatal(err)
	}
	// No [a, 0, 1] triples: open predicates are implicit.
	if strings.Contains(buf.String(), ",0,1]") {
		t.Error("open bounds serialized explicitly")
	}
}
