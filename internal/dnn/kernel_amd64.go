package dnn

import "probpred/internal/mathx"

func init() {
	if mathx.HasAVX2() {
		affine = affineAVX2
	}
}

//go:noescape
func affineAVX2(w, b, in, out []float64)
