package data

import (
	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// LSHTCConfig shapes the LSHTC-like sparse document generator.
type LSHTCConfig struct {
	// Docs is the number of documents. Zero selects 3000.
	Docs int
	// Vocab is the vocabulary size (dimensionality). Zero selects 2000
	// (scaled down from the real 244K while staying sparse).
	Vocab int
	// Categories is the number of categories. Zero selects 40.
	Categories int
	// IndicatorWords is the number of vocabulary words indicative of each
	// category. Zero selects 12.
	IndicatorWords int
	// DocWords is the mean number of word tokens per document. Zero
	// selects 60.
	DocWords int
	// Seed drives generation.
	Seed uint64
}

func (c *LSHTCConfig) fill() {
	if c.Docs == 0 {
		c.Docs = 3000
	}
	if c.Vocab == 0 {
		c.Vocab = 2000
	}
	if c.Categories == 0 {
		c.Categories = 40
	}
	if c.IndicatorWords == 0 {
		c.IndicatorWords = 24
	}
	if c.DocWords == 0 {
		c.DocWords = 60
	}
}

// LSHTC generates the sparse document-classification dataset. Category
// membership is many-to-many (a document can carry several categories, as in
// the real LSHTC); each category has a set of indicator words whose elevated
// frequency in member documents makes the classes linearly separable over
// the bag-of-words features — the property that makes FH+SVM the winning PP
// approach (§8.1 model-selection discussion).
func LSHTC(cfg LSHTCConfig) *Categorical {
	cfg.fill()
	rng := mathx.NewRNG(cfg.Seed ^ 0x15417c)
	// Indicator word sets per category, drawn from a shared topical pool:
	// like the real hierarchical LSHTC labels, categories share vocabulary,
	// so any single word only weakly indicates any one category while the
	// *combination* identifies it. Linear models over (hashed) word vectors
	// learn the combination; per-column statistics cannot (Table 6).
	poolSize := 20 * cfg.IndicatorWords
	if poolSize > cfg.Vocab/2 {
		poolSize = cfg.Vocab / 2
	}
	indicators := make([][]int, cfg.Categories)
	for k := range indicators {
		words := make([]int, cfg.IndicatorWords)
		for i := range words {
			words[i] = rng.Intn(poolSize)
		}
		indicators[k] = words
	}
	// Per-category base rates: selectivities spread from ~2% to ~20%, like
	// the 1-in-several to 1-in-thousands range in Table 1 (compressed so
	// validation splits still contain positives).
	rates := make([]float64, cfg.Categories)
	for k := range rates {
		rates[k] = 0.02 + float64(0.18*rng.Float64())
	}
	d := &Categorical{Name: "lshtc"}
	d.Members = make([][]bool, cfg.Categories)
	for k := range d.Members {
		d.Members[k] = make([]bool, cfg.Docs)
	}
	bgStart := poolSize // background words live outside the topical pool
	for i := 0; i < cfg.Docs; i++ {
		counts := map[int]float64{}
		// Background words, Zipf-ish by sampling squared-uniform indices.
		for w := 0; w < cfg.DocWords; w++ {
			u := rng.Float64()
			idx := bgStart + int(u*u*float64(cfg.Vocab-bgStart))
			if idx >= cfg.Vocab {
				idx = cfg.Vocab - 1
			}
			counts[idx]++
		}
		// Category memberships and their indicator words. Each member
		// document uses only about a third of the category's vocabulary,
		// each word once or twice: no single word identifies the category
		// (as in the real 244K-word corpus), so filters must aggregate
		// evidence across many columns — which is why per-column statistics
		// (Joglekar et al.) trail FH+SVM here (§8.1, Table 6).
		for k := 0; k < cfg.Categories; k++ {
			if !rng.Bernoulli(rates[k]) {
				continue
			}
			d.Members[k][i] = true
			for _, w := range indicators[k] {
				if rng.Bernoulli(0.5) {
					counts[w] += 1 + float64(rng.Intn(2))
				}
			}
		}
		idx := make([]int, 0, len(counts))
		val := make([]float64, 0, len(counts))
		for w, c := range counts {
			idx = append(idx, w)
			val = append(val, c)
		}
		d.Blobs = append(d.Blobs, blob.FromSparse(i, mathx.NewSparse(cfg.Vocab, idx, val)))
	}
	return d
}
