// Package engine is the exact-cardinality oracle of the reproduction: the
// stand-in for the paper's PostgreSQL COUNT(*) executor. Given a synthetic
// dataset whose PK-FK join graph is a tree, it computes the exact result
// cardinality of any connected SPJ query in time linear in the total row
// count of the joined tables, using a bottom-up join-tree dynamic program.
//
// This is the capability the PACE threat model grants the attacker
// ("attackers are able to get the true labels of crafted queries by
// executing COUNT(*) SQLs") and the labeling source for CE model training.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"pace/internal/dataset"
	"pace/internal/query"
)

// Engine answers exact COUNT(*) queries over a dataset. It is safe for
// concurrent use: each call takes its scratch vectors from a pool of
// arenas, so Pool workers can share one Engine.
type Engine struct {
	ds *dataset.Dataset
	// edgesAt[t] lists the indexes into ds.Edges incident to table t.
	edgesAt [][]int
	// arenas hands each Cardinality call its own *arena.
	arenas sync.Pool
}

// arena is one call's scratch: per table, the per-row count vector f and
// the FK-child sum vector acc. A table appears at most once in a query's
// join tree, so one pair per table suffices; both are allocated the first
// time the table is joined and reused by every later call until the
// table's row count changes (dataset.Grow). visited counts the tables the
// call's walk reached, which Cardinality compares with the query's table
// count to reject a disconnected join.
type arena struct {
	f, acc  [][]float64
	visited int
}

// ErrNotConnected is returned for queries whose table set is empty or does
// not form a connected subgraph of the join tree.
var ErrNotConnected = errors.New("engine: query tables are not a connected join")

// New builds an engine over ds.
func New(ds *dataset.Dataset) *Engine {
	e := &Engine{ds: ds, edgesAt: make([][]int, len(ds.Tables))}
	for i, edge := range ds.Edges {
		e.edgesAt[edge.Child] = append(e.edgesAt[edge.Child], i)
		e.edgesAt[edge.Parent] = append(e.edgesAt[edge.Parent], i)
	}
	n := len(ds.Tables)
	e.arenas.New = func() any {
		return &arena{f: make([][]float64, n), acc: make([][]float64, n)}
	}
	return e
}

// Dataset returns the engine's underlying dataset.
func (e *Engine) Dataset() *dataset.Dataset { return e.ds }

// selectRows evaluates the query's range predicates on table t into f,
// which has one slot per row: 1 where the row passes every predicate, 0
// where it fails one. It is the one predicate loop behind Cardinality,
// SelectMask, TableCount and BruteForceCardinality.
func (e *Engine) selectRows(f []float64, t int, q *query.Query) {
	tab := e.ds.Tables[t]
	lo, hi := e.ds.Meta.Attrs(t)
	for r := range f {
		f[r] = 1
	}
	for a := lo; a < hi; a++ {
		b := q.Bounds[a]
		if b[0] <= 0 && b[1] >= 1 {
			continue
		}
		col := tab.Cols[a-lo][:len(f)]
		for r, v := range col {
			if v < b[0] || v > b[1] {
				f[r] = 0
			}
		}
	}
}

// SelectMask evaluates the query's range predicates on table t and returns
// one boolean per row.
func (e *Engine) SelectMask(t int, q *query.Query) []bool {
	f := make([]float64, e.ds.Tables[t].Rows)
	e.selectRows(f, t, q)
	mask := make([]bool, len(f))
	for r, v := range f {
		mask[r] = v != 0
	}
	return mask
}

// TableCount returns the number of rows of table t passing the query's
// predicates on t.
func (e *Engine) TableCount(t int, q *query.Query) int {
	f := make([]float64, e.ds.Tables[t].Rows)
	e.selectRows(f, t, q)
	n := 0
	for _, v := range f {
		if v != 0 {
			n++
		}
	}
	return n
}

// vec returns table t's vector from set (a.f or a.acc), allocating it on
// the table's first use and again whenever the table has grown since.
func (a *arena) vec(set [][]float64, t, rows int) []float64 {
	if len(set[t]) != rows {
		set[t] = make([]float64, rows)
	}
	return set[t]
}

// Cardinality computes the exact COUNT(*) of the SPJ query. The query's
// tables must form a non-empty connected subtree of the dataset's join
// graph; otherwise ErrNotConnected is returned. In steady state a call
// allocates nothing.
func (e *Engine) Cardinality(q *query.Query) (float64, error) {
	if len(q.Tables) != len(e.ds.Tables) {
		return 0, fmt.Errorf("engine: query has %d table slots, dataset has %d",
			len(q.Tables), len(e.ds.Tables))
	}
	root, n := -1, 0
	for t, in := range q.Tables {
		if in {
			if root < 0 {
				root = t
			}
			n++
		}
	}
	if n == 0 {
		return 0, ErrNotConnected
	}
	a := e.arenas.Get().(*arena)
	a.visited = 0
	var total float64
	for _, v := range e.subtreeCounts(a, root, -1, q) {
		total += v
	}
	visited := a.visited
	e.arenas.Put(a)
	if visited != n {
		return 0, ErrNotConnected
	}
	return total, nil
}

// across returns the table at the other end of edge ei from t.
func (e *Engine) across(ei, t int) int {
	edge := &e.ds.Edges[ei]
	if edge.Child == t {
		return edge.Parent
	}
	return edge.Child
}

// subtreeCounts returns, for every row of table t, the number of join
// combinations over the selected subtree rooted at t (entered from edge
// fromEdge, -1 at the root) that include the row and satisfy every
// predicate. The result is a's vector for t. The join graph is a tree, so
// the walk needs no visited set; it counts the tables it reaches in
// a.visited.
func (e *Engine) subtreeCounts(a *arena, t, fromEdge int, q *query.Query) []float64 {
	a.visited++
	rows := e.ds.Tables[t].Rows
	f := a.vec(a.f, t, rows)
	e.selectRows(f, t, q)
	for _, ei := range e.edgesAt[t] {
		other := e.across(ei, t)
		if ei == fromEdge || !q.Tables[other] {
			continue
		}
		sub := e.subtreeCounts(a, other, ei, q)
		edge := e.ds.Edges[ei]
		if edge.Parent == t {
			// other is an FK child of t: each row of t matches the
			// sum of its referencing child rows' counts.
			acc := a.vec(a.acc, t, rows)
			clear(acc)
			for cr, pr := range edge.Refs {
				acc[pr] += sub[cr]
			}
			for r := range f {
				f[r] *= acc[r]
			}
		} else {
			// other is the FK parent of t: each row of t matches
			// exactly the count of the single row it references.
			for r, pr := range edge.Refs[:len(f)] {
				f[r] *= sub[pr]
			}
		}
	}
	return f
}

// BruteForceCardinality computes the same count by explicit backtracking
// over row assignments. It is exponential and exists only as a test oracle
// for small datasets.
func (e *Engine) BruteForceCardinality(q *query.Query) (float64, error) {
	var selected []int
	for t, in := range q.Tables {
		if in {
			selected = append(selected, t)
		}
	}
	if len(selected) == 0 || !q.Connected(e.ds.Joinable) {
		return 0, ErrNotConnected
	}
	masks := make(map[int][]bool, len(selected))
	for _, t := range selected {
		masks[t] = e.SelectMask(t, q)
	}
	assign := make(map[int]int, len(selected))
	var count float64
	var rec func(i int)
	rec = func(i int) {
		if i == len(selected) {
			count++
			return
		}
		t := selected[i]
		for r := 0; r < e.ds.Tables[t].Rows; r++ {
			if !masks[t][r] {
				continue
			}
			assign[t] = r
			if e.consistent(assign, t, q) {
				rec(i + 1)
			}
			delete(assign, t)
		}
	}
	rec(0)
	return count, nil
}

// consistent checks the FK constraints between the newly assigned table t
// and all previously assigned tables.
func (e *Engine) consistent(assign map[int]int, t int, q *query.Query) bool {
	for _, edge := range e.ds.Edges {
		if !q.Tables[edge.Child] || !q.Tables[edge.Parent] {
			continue
		}
		cr, cok := assign[edge.Child]
		pr, pok := assign[edge.Parent]
		if cok && pok && (edge.Child == t || edge.Parent == t) {
			if edge.Refs[cr] != pr {
				return false
			}
		}
	}
	return true
}
