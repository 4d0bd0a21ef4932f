package data

import (
	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// UCFConfig shapes the UCF101-like video activity dataset.
type UCFConfig struct {
	// Clips is the number of video clips. Zero selects 2400.
	Clips int
	// Dim is the blob dimensionality (concatenated raw frame features,
	// §5.6). Zero selects 64.
	Dim int
	// Latent is the latent motion-space dimensionality. Zero selects 8.
	Latent int
	// Activities is the number of action categories (the real dataset has
	// 101; we scale to 20). Zero selects 20.
	Activities int
	// ModesPerActivity is how many distinct sub-styles each activity has;
	// multi-modality is what defeats linear one-vs-rest separation and
	// makes PCA+KDE the winning approach (Table 4). Zero selects 3.
	ModesPerActivity int
	// Seed drives generation.
	Seed uint64
}

func (c *UCFConfig) fill() {
	if c.Clips == 0 {
		c.Clips = 2400
	}
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.Latent == 0 {
		c.Latent = 8
	}
	if c.Activities == 0 {
		c.Activities = 20
	}
	if c.ModesPerActivity == 0 {
		c.ModesPerActivity = 3
	}
}

// UCF101 generates the video-activity-recognition dataset: each clip belongs
// to exactly one activity; an activity is a mixture of a few well-separated
// Gaussian modes in a latent space, linearly mixed into blob space with
// noise. The activities are "distinctive" (clusters are far apart) but not
// linearly separable one-vs-rest because of the multi-modal structure —
// matching the paper's observation that PCA+KDE suffices on UCF101 and
// outperforms SVM by ~10% reduction (§8.1, Table 4).
func UCF101(cfg UCFConfig) *Categorical {
	cfg.fill()
	shared := mathx.NewRNG(cfg.Seed ^ 0x0cf101)
	mix := randomMatrix(cfg.Dim, cfg.Latent, shared)
	modes := make([][]mathx.Vec, cfg.Activities)
	for k := range modes {
		modes[k] = make([]mathx.Vec, cfg.ModesPerActivity)
		for m := range modes[k] {
			c := make(mathx.Vec, cfg.Latent)
			if m%2 == 1 {
				// Antipodal sub-style: the same activity seen "mirrored"
				// (e.g. rowing left-to-right vs right-to-left). No
				// hyperplane scores both a mode and its mirror high, so
				// one-vs-rest linear separation fails while density-based
				// classification is unaffected — the UCF101 property behind
				// Table 4's PCA+KDE > SVM gap.
				copy(c, modes[k][m-1])
				mathx.Scale(-1, c)
			} else {
				for j := range c {
					c[j] = shared.NormFloat64() * 1.7
				}
			}
			modes[k][m] = c
		}
	}
	rng := mathx.NewRNG(cfg.Seed ^ 0xac7)
	d := &Categorical{Name: "ucf101"}
	d.Members = make([][]bool, cfg.Activities)
	for k := range d.Members {
		d.Members[k] = make([]bool, cfg.Clips)
	}
	for i := 0; i < cfg.Clips; i++ {
		k := rng.Intn(cfg.Activities)
		m := rng.Intn(cfg.ModesPerActivity)
		z := make(mathx.Vec, cfg.Latent)
		for j := range z {
			z[j] = modes[k][m][j] + float64(rng.NormFloat64()*0.8)
		}
		v := mix.MulVec(z)
		// Per-clip brightness/contrast variation: a random common-mode
		// offset confounds individual raw columns (weakening per-column
		// statistics like Joglekar's) while PCA isolates it into a single
		// component the KDE can ignore.
		offset := rng.NormFloat64() * 2.0
		for j := range v {
			v[j] += offset + float64(rng.NormFloat64()*0.3)
		}
		d.Members[k][i] = true
		d.Blobs = append(d.Blobs, blob.FromDense(i, v))
	}
	return d
}
