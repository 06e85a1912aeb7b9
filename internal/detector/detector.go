// Package detector implements the VAE-based anomaly detector of PACE §6:
// a variational auto-encoder trained to reconstruct historical query
// encodings. A query whose reconstruction error exceeds a threshold is
// abnormal; during attack training the reconstruction loss of abnormal
// generated queries is backpropagated into the poisoning generator,
// keeping the poisoning workload distributionally close to history.
package detector

import (
	"math"
	"math/rand"
	"sort"

	"pace/internal/nn"
)

// Config sizes and schedules the detector.
type Config struct {
	// Latent is the VAE latent dimension (default 6).
	Latent int
	// Hidden is the hidden width of encoder and decoder (default 48).
	Hidden int
	// Epochs and Batch control training (defaults 100 and 32).
	Epochs, Batch int
	// LR is the Adam learning rate (default 3e-3).
	LR float64
	// KLWeight scales the KL regularizer (default 1e-3; the
	// reconstruction term dominates, as in reconstruction-based anomaly
	// detection).
	KLWeight float64
	// Threshold is the absolute reconstruction-MSE threshold ε above
	// which a query is abnormal (default 0.05, the paper's recommended
	// 5%).
	Threshold float64
}

func (c Config) withDefaults() Config {
	if c.Latent == 0 {
		c.Latent = 6
	}
	if c.Hidden == 0 {
		c.Hidden = 48
	}
	if c.Epochs == 0 {
		c.Epochs = 100
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.KLWeight == 0 {
		c.KLWeight = 1e-3
	}
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	return c
}

// Detector is the trained VAE plus its anomaly threshold.
type Detector struct {
	cfg Config
	dim int

	enc *nn.MLP // dim → … → 2·latent (μ ‖ logσ²)
	dec *nn.MLP // latent → … → dim (sigmoid: encodings live in [0,1])

	opt    *nn.Adam
	rng    *rand.Rand
	params []*nn.Param // enc then dec, built once

	// trainOne's per-sample scratch, sized once at construction.
	eps, z, dxhat, dh []float64
}

// New builds an untrained detector for encodings of the given dimension.
// Encoder and decoder have 3 dense layers each, plus the latent bottleneck
// — the 7-layer detector of the paper's hyperparameter table.
func New(dim int, cfg Config, rng *rand.Rand) *Detector {
	cfg = cfg.withDefaults()
	d := &Detector{cfg: cfg, dim: dim, rng: rng}
	d.enc = nn.NewMLP("det.enc",
		[]int{dim, cfg.Hidden, cfg.Hidden, 2 * cfg.Latent}, nn.NewReLU, nil, rng)
	d.dec = nn.NewMLP("det.dec",
		[]int{cfg.Latent, cfg.Hidden, cfg.Hidden, dim}, nn.NewReLU, nn.NewSigmoid, rng)
	d.params = append(d.enc.Params(), d.dec.Params()...)
	d.opt = nn.NewAdam(d.params, cfg.LR)
	d.eps = make([]float64, cfg.Latent)
	d.z = make([]float64, cfg.Latent)
	d.dxhat = make([]float64, dim)
	d.dh = make([]float64, 2*cfg.Latent)
	return d
}

// Threshold returns the anomaly threshold ε.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// SetThreshold overrides the anomaly threshold ε (the Fig. 13 sweep).
func (d *Detector) SetThreshold(eps float64) { d.cfg.Threshold = eps }

// Train fits the VAE to the historical query encodings with the MSE
// reconstruction loss of Eq. 12 plus a KL regularizer.
func (d *Detector) Train(history [][]float64) {
	if len(history) == 0 {
		return
	}
	idx := make([]int, len(history))
	for i := range idx {
		idx[i] = i
	}
	for ep := 0; ep < d.cfg.Epochs; ep++ {
		d.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for lo := 0; lo < len(idx); lo += d.cfg.Batch {
			hi := lo + d.cfg.Batch
			if hi > len(idx) {
				hi = len(idx)
			}
			for _, i := range idx[lo:hi] {
				d.trainOne(history[i])
			}
			d.opt.Step(1 / float64(hi-lo))
		}
	}
}

// trainOne accumulates one sample's gradient: stochastic reparameterized
// forward, MSE + KL backward.
func (d *Detector) trainOne(v []float64) {
	latent := d.cfg.Latent
	h := d.enc.Forward(v)
	mu, logvar := h[:latent], h[latent:]

	eps, z := d.eps, d.z
	for i := range z {
		eps[i] = d.rng.NormFloat64()
		z[i] = mu[i] + eps[i]*math.Exp(0.5*logvar[i])
	}
	xhat := d.dec.Forward(z)

	// Reconstruction: L = Σ(xhat−v)²/dim.
	dxhat := d.dxhat
	for i := range dxhat {
		dxhat[i] = 2 * (xhat[i] - v[i]) / float64(d.dim)
	}
	dz := d.dec.Backward(dxhat)

	// Reparameterization + KL gradients.
	dh := d.dh
	for i := 0; i < latent; i++ {
		dh[i] = dz[i] + d.cfg.KLWeight*mu[i]
		dh[latent+i] = dz[i]*eps[i]*0.5*math.Exp(0.5*logvar[i]) +
			d.cfg.KLWeight*0.5*(math.Exp(logvar[i])-1)
	}
	d.enc.Backward(dh)
}

// ReconError returns the deterministic (μ-path) reconstruction MSE of v —
// the anomaly score.
func (d *Detector) ReconError(v []float64) float64 {
	err, _ := d.forwardMu(v)
	return err
}

// IsAbnormal reports whether v's reconstruction error exceeds ε.
func (d *Detector) IsAbnormal(v []float64) bool {
	return d.ReconError(v) > d.cfg.Threshold
}

// ReconGrad returns the reconstruction error of v and its gradient with
// respect to v — the signal backpropagated into the poisoning generator
// during the confrontation of §6.2. Both the path through the network and
// the direct (xhat−v) dependence are included.
func (d *Detector) ReconGrad(v []float64) (float64, []float64) {
	err, xhat := d.forwardMu(v)

	dxhat := make([]float64, d.dim)
	dv := make([]float64, d.dim)
	for i := range dxhat {
		g := 2 * (xhat[i] - v[i]) / float64(d.dim)
		dxhat[i] = g
		dv[i] = -g // direct dependence of the loss on v
	}
	nn.ZeroGrads(d.params)
	dz := d.dec.Backward(dxhat)
	dh := make([]float64, 2*d.cfg.Latent)
	copy(dh, dz) // μ path only; the deterministic pass ignores logσ²
	dvEnc := d.enc.Backward(dh)
	nn.AddScaled(dv, 1, dvEnc)
	// The detector itself is frozen during confrontation: drop the
	// parameter gradients this backward pass accumulated.
	nn.ZeroGrads(d.params)
	return err, dv
}

// forwardMu runs the deterministic μ-path forward and returns the MSE and
// reconstruction.
func (d *Detector) forwardMu(v []float64) (float64, []float64) {
	h := d.enc.Forward(v)
	mu := h[:d.cfg.Latent]
	xhat := d.dec.Forward(mu)
	var sum float64
	for i := range xhat {
		diff := xhat[i] - v[i]
		sum += diff * diff
	}
	return sum / float64(d.dim), xhat
}

// CalibrateThreshold sets ε to the given percentile of the reconstruction
// errors over the history (an alternative to the absolute default when
// the encoding dimensionality makes absolute MSE hard to interpret).
func (d *Detector) CalibrateThreshold(history [][]float64, percentile float64) {
	if len(history) == 0 {
		return
	}
	errs := make([]float64, len(history))
	for i, v := range history {
		errs[i] = d.ReconError(v)
	}
	sort.Float64s(errs)
	rank := int(math.Ceil(percentile/100*float64(len(errs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(errs) {
		rank = len(errs) - 1
	}
	d.cfg.Threshold = errs[rank]
}
