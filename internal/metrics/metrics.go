// Package metrics implements the paper's four attack-evaluation metrics
// (§2.2): Q-error aggregation (mean and percentiles), Jensen-Shannon
// divergence between workload distributions, and simple timing summaries.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// HitRate is the fraction of lookups served from a cache: hits out of
// hits+misses (0 when there was no traffic). Shared by the oracle-cache
// reporting of cmd/pace and Result.Stats consumers.
func HitRate(hits, misses int64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Speedup is the wall-clock ratio serial/parallel (0 when parallel is
// 0) — the headline number of BENCH.json's legacy parallel/* cells.
func Speedup(serial, parallel float64) float64 {
	if parallel == 0 {
		return 0
	}
	return serial / parallel
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for an empty slice).
// Q-error distributions are heavy-tailed; ratio-style comparisons
// (Figure 11, Table 7) use the geometric mean so a single outlier query
// cannot dominate the ratio. Non-positive entries are floored at 1, the
// Q-error minimum.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x < 1 {
			x = 1
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// nearest-rank on a sorted copy (0 for an empty slice, matching Mean
// and GeoMean).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Summary aggregates a Q-error distribution the way the paper's tables
// report it.
type Summary struct {
	Mean, P50, P90, P95, P99, Max float64
}

// Summarize computes the standard summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		Mean: Mean(xs),
		P50:  Percentile(xs, 50),
		P90:  Percentile(xs, 90),
		P95:  Percentile(xs, 95),
		P99:  Percentile(xs, 99),
		Max:  Percentile(xs, 100),
	}
}

// String renders the summary as a table row.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.3g p50=%.3g p90=%.3g p95=%.3g p99=%.3g max=%.3g",
		s.Mean, s.P50, s.P90, s.P95, s.P99, s.Max)
}

// JSDivergence computes the Jensen-Shannon divergence (in nats) between
// two sets of query encodings, the paper's normality metric for poisoning
// workloads. Each encoding dimension is histogrammed into bins buckets
// over [0, 1]; the divergence is averaged across dimensions.
func JSDivergence(a, b [][]float64, bins int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if bins <= 0 {
		bins = 10
	}
	dims := len(a[0])
	var total float64
	for d := 0; d < dims; d++ {
		pa := histogram(a, d, bins)
		pb := histogram(b, d, bins)
		total += jsd(pa, pb)
	}
	return total / float64(dims)
}

func histogram(vs [][]float64, dim, bins int) []float64 {
	h := make([]float64, bins)
	n := 0
	for _, v := range vs {
		if dim >= len(v) {
			// Ragged input: rows shorter than the reference row simply
			// contribute nothing to the higher dimensions instead of
			// panicking the whole evaluation.
			continue
		}
		x := v[dim]
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		i := int(x * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		h[i]++
		n++
	}
	// Laplace smoothing keeps the KL terms finite.
	total := float64(n) + float64(bins)*1e-6
	for i := range h {
		h[i] = (h[i] + 1e-6) / total
	}
	return h
}

func jsd(p, q []float64) float64 {
	m := make([]float64, len(p))
	for i := range m {
		m[i] = (p[i] + q[i]) / 2
	}
	return (kl(p, m) + kl(q, m)) / 2
}

func kl(p, q []float64) float64 {
	var s float64
	for i := range p {
		if p[i] > 0 && q[i] > 0 {
			s += p[i] * math.Log(p[i]/q[i])
		}
	}
	return s
}

// CosineSimilarity returns the cosine of the angle between a and b
// (0 when either vector is zero). It is the similarity measure of the
// model-type speculation step (Eq. 5).
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: CosineSimilarity length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
