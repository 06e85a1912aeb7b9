package engine

import (
	"pace/internal/query"
)

// The mask-based join-tree DP the engine shipped before its arena kernel,
// kept verbatim as a test reference: Cardinality must return the same
// float64 bits, because the kernel keeps every product and sum in the same
// order.

func refSelectMask(e *Engine, t int, q *query.Query) []bool {
	tab := e.ds.Tables[t]
	lo, hi := e.ds.Meta.Attrs(t)
	mask := make([]bool, tab.Rows)
	for r := range mask {
		mask[r] = true
	}
	for a := lo; a < hi; a++ {
		b := q.Bounds[a]
		if b[0] <= 0 && b[1] >= 1 {
			continue
		}
		col := tab.Cols[a-lo]
		for r := 0; r < tab.Rows; r++ {
			if mask[r] && (col[r] < b[0] || col[r] > b[1]) {
				mask[r] = false
			}
		}
	}
	return mask
}

func refCardinality(e *Engine, q *query.Query) (float64, error) {
	var selected []int
	for t, in := range q.Tables {
		if in {
			selected = append(selected, t)
		}
	}
	if len(selected) == 0 || !q.Connected(e.ds.Joinable) {
		return 0, ErrNotConnected
	}
	f := refSubtreeCounts(e, selected[0], -1, q)
	var total float64
	for _, v := range f {
		total += v
	}
	return total, nil
}

func refSubtreeCounts(e *Engine, t, fromEdge int, q *query.Query) []float64 {
	tab := e.ds.Tables[t]
	mask := refSelectMask(e, t, q)
	f := make([]float64, tab.Rows)
	for r, ok := range mask {
		if ok {
			f[r] = 1
		}
	}
	for _, ei := range e.edgesAt[t] {
		if ei == fromEdge {
			continue
		}
		edge := e.ds.Edges[ei]
		other := edge.Child
		if other == t {
			other = edge.Parent
		}
		if !q.Tables[other] {
			continue
		}
		sub := refSubtreeCounts(e, other, ei, q)
		if edge.Parent == t {
			acc := make([]float64, tab.Rows)
			for cr, pr := range edge.Refs {
				acc[pr] += sub[cr]
			}
			for r := range f {
				f[r] *= acc[r]
			}
		} else {
			for r := range f {
				f[r] *= sub[edge.Refs[r]]
			}
		}
	}
	return f
}
