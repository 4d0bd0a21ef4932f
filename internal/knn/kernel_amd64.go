package knn

import "probpred/internal/mathx"

func init() {
	if mathx.HasAVX2() {
		sqDists = sqDistsAVX2
	}
}

//go:noescape
func sqDistsAVX2(q, blk []float64, bound float64, out *[lanes]float64) uint32
