package data

import (
	"math"
	"sort"

	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// ImageConfig shapes the COCO-like / ImageNet-like dense image generators.
type ImageConfig struct {
	// Items is the number of images. Zero selects 3000.
	Items int
	// Dim is the blob dimensionality (the "raw pixels"). Zero selects 96.
	Dim int
	// Latent is the latent factor dimensionality. Zero selects 8.
	Latent int
	// Categories is the number of object classes. Zero selects 24 (the
	// paper uses the 80 COCO classes; we scale down).
	Categories int
	// Noise is the observation noise added to the mixed blob. Zero selects
	// 0.25 for COCO-like clutter; ImageNet uses a cleaner 0.08.
	Noise float64
	// Distractor adds a second random latent component to the blob,
	// emulating COCO's multi-object clutter. Zero disables.
	Distractor float64
	// Shift translates the latent distribution (the ImageNet domain shift
	// for cross-training experiments). Zero disables.
	Shift float64
	// Seed drives sampling of the latent points. The mixing matrix and
	// class centers come from SharedSeed so that COCO-like and
	// ImageNet-like datasets describe the *same* classes.
	Seed uint64
	// SharedSeed fixes the mixing matrix and class centers. Zero selects a
	// default shared across COCO/ImageNet.
	SharedSeed uint64
}

func (c *ImageConfig) fill() {
	if c.Items == 0 {
		c.Items = 3000
	}
	if c.Dim == 0 {
		c.Dim = 96
	}
	if c.Latent == 0 {
		c.Latent = 8
	}
	if c.Categories == 0 {
		c.Categories = 24
	}
	if c.SharedSeed == 0 {
		c.SharedSeed = 0xc0c0
	}
}

// COCO generates the COCO-like dataset: blobs are a fixed non-linear mixing
// (tanh of a random projection) of latent factors plus clutter, and class
// membership is radial in the latent space — non-linearly separable in blob
// space, which is why DNN PPs are needed (§8.1, Table 4).
func COCO(seed uint64) *Categorical {
	return imageDataset("coco", ImageConfig{Noise: 0.25, Distractor: 0.5, Seed: seed})
}

// ImageNet generates the ImageNet-like dataset: the same classes (same
// mixing matrix and class centers) sampled with a domain shift and less
// clutter. PPs trained on COCO-like data apply here with degraded but useful
// reduction (cross-training, Table 4).
func ImageNet(seed uint64) *Categorical {
	return imageDataset("imagenet", ImageConfig{Noise: 0.08, Shift: 0.3, Seed: seed ^ 0x1e7})
}

// SUNAttribute generates the SUNAttribute-like dataset: simpler scenes —
// linear mixing, lower dimensionality, attributes defined by intervals of
// single latent factors. PCA recovers the latent space and KDE separates the
// interval structure (§8.1: "for the relatively simple images in
// SUNAttribute, PCA + KDE leads to good PPs").
func SUNAttribute(seed uint64) *Categorical {
	cfg := ImageConfig{Items: 2500, Dim: 64, Latent: 4, Categories: 30,
		Noise: 0.1, Seed: seed, SharedSeed: 0x5c31e}
	cfg.fill()
	shared := mathx.NewRNG(cfg.SharedSeed)
	mix := randomMatrix(cfg.Dim, cfg.Latent, shared)
	// Attribute k is radial over a pair of latent dimensions: compact
	// non-linear structure that KDE separates well after PCA recovers the
	// latent space, while no single raw column carries it (each raw column
	// mixes all latents), keeping per-column statistics weak.
	type attr struct {
		d1, d2 int
		c1, c2 float64
	}
	attrs := make([]attr, cfg.Categories)
	for k := range attrs {
		d1 := k % cfg.Latent
		d2 := (k + 1 + k/cfg.Latent) % cfg.Latent
		if d2 == d1 {
			d2 = (d1 + 1) % cfg.Latent
		}
		attrs[k] = attr{d1: d1, d2: d2, c1: shared.NormFloat64() * 0.7, c2: shared.NormFloat64() * 0.7}
	}
	rng := mathx.NewRNG(cfg.Seed ^ 0x5a1)
	d := &Categorical{Name: "sun"}
	d.Members = make([][]bool, cfg.Categories)
	for k := range d.Members {
		d.Members[k] = make([]bool, cfg.Items)
	}
	zs := make([]mathx.Vec, cfg.Items)
	for i := range zs {
		z := make(mathx.Vec, cfg.Latent)
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		zs[i] = z
		v := mix.MulVec(z) // linear mixing: "simple" scenes
		// Scene-wide illumination offset: harmless to PCA+KDE (it lands in
		// one principal component) but it confounds raw per-column
		// statistics.
		offset := float64(rng.NormFloat64() * 1.5)
		for j := range v {
			v[j] += offset + float64(rng.NormFloat64()*cfg.Noise)
		}
		d.Blobs = append(d.Blobs, blob.FromDense(i, v))
	}
	// Radii tuned per attribute to hit selectivities 0.1-0.3.
	for k, a := range attrs {
		target := 0.1 + float64(0.2*mathx.NewRNG(cfg.SharedSeed^uint64(k)).Float64())
		dists := make([]float64, cfg.Items)
		for i, z := range zs {
			dx := z[a.d1] - a.c1
			dy := z[a.d2] - a.c2
			dists[i] = math.Sqrt(float64(dx*dx) + float64(dy*dy))
		}
		radius := mathx.Quantile(dists, target)
		for i := range zs {
			d.Members[k][i] = dists[i] <= radius
		}
	}
	return d
}

// imageDataset builds COCO-like / ImageNet-like data with radial classes in
// a shared latent space.
func imageDataset(name string, cfg ImageConfig) *Categorical {
	cfg.fill()
	shared := mathx.NewRNG(cfg.SharedSeed)
	mix := randomMatrix(cfg.Dim, cfg.Latent, shared)
	centers := make([]mathx.Vec, cfg.Categories)
	targets := make([]float64, cfg.Categories)
	for k := range centers {
		c := make(mathx.Vec, cfg.Latent)
		for j := range c {
			c[j] = shared.NormFloat64() * 0.8
		}
		centers[k] = c
		targets[k] = 0.05 + float64(0.2*shared.Float64())
	}
	rng := mathx.NewRNG(cfg.Seed ^ 0x1ca9e)
	d := &Categorical{Name: name}
	d.Members = make([][]bool, cfg.Categories)
	for k := range d.Members {
		d.Members[k] = make([]bool, cfg.Items)
	}
	zs := make([]mathx.Vec, cfg.Items)
	for i := range zs {
		z := make(mathx.Vec, cfg.Latent)
		for j := range z {
			z[j] = rng.NormFloat64() + cfg.Shift
		}
		zs[i] = z
		v := mix.MulVec(z)
		for j := range v {
			v[j] = math.Tanh(v[j]) // non-linear "rendering"
		}
		if cfg.Distractor > 0 {
			// A second, unrelated latent object cluttering the scene.
			zd := make(mathx.Vec, cfg.Latent)
			for j := range zd {
				zd[j] = rng.NormFloat64()
			}
			vd := mix.MulVec(zd)
			for j := range v {
				v[j] += float64(cfg.Distractor * math.Tanh(vd[j]) * rng.Float64())
			}
		}
		for j := range v {
			v[j] += float64(rng.NormFloat64() * cfg.Noise)
		}
		d.Blobs = append(d.Blobs, blob.FromDense(i, v))
	}
	// Radial membership with per-class radii set to hit the target
	// selectivity exactly on this sample.
	for k, c := range centers {
		dists := make([]float64, cfg.Items)
		for i, z := range zs {
			dists[i] = math.Sqrt(mathx.SqDist(z, c))
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		radius := mathx.QuantileSorted(sorted, targets[k])
		for i := range zs {
			d.Members[k][i] = dists[i] <= radius
		}
	}
	return d
}

// randomMatrix draws a rows×cols matrix with N(0, 1/cols) entries.
func randomMatrix(rows, cols int, rng *mathx.RNG) *mathx.Mat {
	m := mathx.NewMat(rows, cols)
	scale := 1 / math.Sqrt(float64(cols))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return m
}
