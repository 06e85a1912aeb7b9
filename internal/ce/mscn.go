package ce

import (
	"math/rand"

	"pace/internal/nn"
	"pace/internal/query"
)

// mscn is the multi-set convolutional network (Kipf et al. 2019): every
// joined table becomes a set element — [table one-hot ‖ join bit ‖ its
// (padded) predicate bounds] — processed by a shared per-element MLP,
// mean-pooled, and passed through a dense head.
type mscn struct {
	meta    *query.Meta
	maxAttr int
	hidden  int // width of the pooled vector, the head's input
	shared  *nn.MLP
	head    *nn.MLP

	x       []float64
	present []int
	elems   [][]float64
}

func newMSCN(meta *query.Meta, hp HyperParams, rng *rand.Rand) Model {
	maxAttr := 0
	for t := 0; t < meta.NumTables(); t++ {
		lo, hi := meta.Attrs(t)
		if hi-lo > maxAttr {
			maxAttr = hi - lo
		}
	}
	elemDim := meta.NumTables() + 1 + 2*maxAttr
	m := &mscn{meta: meta, maxAttr: maxAttr, hidden: hp.Hidden}
	m.shared = nn.NewMLP("mscn.shared",
		[]int{elemDim, hp.Hidden, hp.Hidden}, nn.NewReLU, nn.NewReLU, rng)
	m.head = nn.NewMLP("mscn.head", []int{hp.Hidden, 1}, nil, nn.NewSigmoid, rng)
	return m
}

func (m *mscn) Type() Type        { return MSCN }
func (m *mscn) Meta() *query.Meta { return m.meta }

func (m *mscn) Params() []*nn.Param {
	return append(m.shared.Params(), m.head.Params()...)
}

// element builds the set-element feature vector for table t from the
// query encoding v.
func (m *mscn) element(v []float64, t int) []float64 {
	nT := m.meta.NumTables()
	e := make([]float64, nT+1+2*m.maxAttr)
	e[t] = 1
	e[nT] = v[t]
	lo, hi := m.meta.Attrs(t)
	for a := lo; a < hi; a++ {
		e[nT+1+2*(a-lo)] = v[nT+2*a]
		e[nT+1+2*(a-lo)+1] = v[nT+2*a+1]
	}
	// Unused bound slots of shorter tables stay 0 ‖ pad with open [0,1].
	for i := hi - lo; i < m.maxAttr; i++ {
		e[nT+1+2*i] = 0
		e[nT+1+2*i+1] = 1
	}
	return e
}

func (m *mscn) Forward(v []float64) float64 {
	m.x = v
	m.present = m.present[:0]
	m.elems = m.elems[:0]
	for t := 0; t < m.meta.NumTables(); t++ {
		if v[t] > 0.5 {
			m.present = append(m.present, t)
			m.elems = append(m.elems, m.element(v, t))
		}
	}
	pooled := make([]float64, m.hidden)
	if len(m.elems) > 0 {
		for _, e := range m.elems {
			nn.AddScaled(pooled, 1.0/float64(len(m.elems)), m.shared.Forward(e))
		}
	}
	return m.head.Forward(pooled)[0]
}

func (m *mscn) Backward(dOut float64) []float64 {
	dPool := m.head.Backward([]float64{dOut})
	dx := make([]float64, len(m.x))
	if len(m.elems) == 0 {
		return dx
	}
	nT := m.meta.NumTables()
	scale := 1.0 / float64(len(m.elems))
	for i, t := range m.present {
		// Restore the shared MLP's caches for this element before
		// backpropagating its share of the pooled gradient.
		m.shared.Forward(m.elems[i])
		dElem := make([]float64, len(dPool))
		nn.AddScaled(dElem, scale, dPool)
		dE := m.shared.Backward(dElem)
		// Scatter the element gradient back onto the encoding.
		dx[t] += dE[nT]
		lo, hi := m.meta.Attrs(t)
		for a := lo; a < hi; a++ {
			dx[nT+2*a] += dE[nT+1+2*(a-lo)]
			dx[nT+2*a+1] += dE[nT+1+2*(a-lo)+1]
		}
	}
	return dx
}
