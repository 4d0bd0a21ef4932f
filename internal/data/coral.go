package data

import (
	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// VideoStream is a synthetic fixed-camera surveillance video (the NoScope
// "coral" / "square" clips of Appendix B): frames are flattened pixel grids;
// almost all frames are empty background; objects enter rarely and persist
// for several frames (frame redundancy), drifting as they go.
type VideoStream struct {
	// Name identifies the clip ("coral" or "square").
	Name string
	// Width and Height are the frame dimensions; blobs are row-major
	// flattened pixels of length Width*Height.
	Width, Height int
	// Frames holds the pixel blobs in temporal order.
	Frames []blob.Blob
	// HasObject marks frames containing a target object inside the
	// area of interest.
	HasObject []bool
	// MaskCols is the number of rightmost pixel columns that are outside
	// the area of interest (shimmering water in the coral clip); the
	// Appendix-B pipeline masks them out.
	MaskCols int
	// Background is an empty reference footage frame for absolute
	// background subtraction.
	Background mathx.Vec
}

// Set returns the stream as a labeled blob set for PP training.
func (v *VideoStream) Set() blob.Set {
	return blob.Set{Blobs: v.Frames, Labels: v.HasObject}
}

// InMask reports whether pixel column x lies outside the area of interest.
func (v *VideoStream) InMask(x int) bool { return x >= v.Width-v.MaskCols }

// CoralConfig shapes the surveillance stream generator.
type CoralConfig struct {
	// Frames is the stream length. Zero selects 20000.
	Frames int
	// Width and Height are the frame dimensions. Zero selects 16×16.
	Width, Height int
	// EnterProb is the per-frame probability that a new object enters when
	// none is present. Zero selects 0.0015 (the coral clip is >99% empty).
	EnterProb float64
	// StayProb is the per-frame probability that a present object stays.
	// Zero selects 0.88 (objects persist ~8 frames).
	StayProb float64
	// MaskCols is the number of irrelevant rightmost columns. Zero
	// selects a third of the width.
	MaskCols int
	// Seed drives generation.
	Seed uint64
}

func (c *CoralConfig) fill() {
	if c.Frames == 0 {
		c.Frames = 20000
	}
	if c.Width == 0 {
		c.Width = 16
	}
	if c.Height == 0 {
		c.Height = 16
	}
	if c.EnterProb == 0 {
		c.EnterProb = 0.0015
	}
	if c.StayProb == 0 {
		c.StayProb = 0.88
	}
	if c.MaskCols == 0 {
		c.MaskCols = c.Width / 3
	}
}

// Coral generates the coral-reef-camera-like stream.
func Coral(cfg CoralConfig) *VideoStream {
	cfg.fill()
	return videoStream("coral", cfg)
}

// Square generates the busier "square" clip: a public square with an order
// of magnitude more object activity (the paper reports ~96.7% empty frames
// versus coral's 99.8%).
func Square(cfg CoralConfig) *VideoStream {
	cfg.fill()
	cfg.EnterProb = 0.012
	cfg.StayProb = 0.75
	return videoStream("square", cfg)
}

// videoKeys is the ground truth of a video frame: whether the object is in it.
var videoKeys = blob.NewTruthKeys("object")

func videoStream(name string, cfg CoralConfig) *VideoStream {
	rng := mathx.NewRNG(cfg.Seed ^ 0xc04a1)
	w, h := cfg.Width, cfg.Height
	npx := w * h
	base := make(mathx.Vec, npx)
	for i := range base {
		base[i] = 0.3 + 0.4*rng.Float64()
	}
	v := &VideoStream{Name: name, Width: w, Height: h, MaskCols: cfg.MaskCols,
		Background: mathx.CloneVec(base)}
	truth := videoKeys.Rows(cfg.Frames)
	objectPresent := false
	objX, objY := 0, 0
	relevantW := w - cfg.MaskCols
	for f := 0; f < cfg.Frames; f++ {
		if objectPresent {
			if !rng.Bernoulli(cfg.StayProb) {
				objectPresent = false
			} else {
				// Drift by at most one pixel, staying in the relevant area.
				objX = clampInt(objX+rng.Intn(3)-1, 1, relevantW-2)
				objY = clampInt(objY+rng.Intn(3)-1, 1, h-2)
			}
		} else if rng.Bernoulli(cfg.EnterProb) {
			objectPresent = true
			objX = 1 + rng.Intn(relevantW-2)
			objY = 1 + rng.Intn(h-2)
		}
		frame := make(mathx.Vec, npx)
		drift := 0.02 * rng.NormFloat64() // global illumination drift
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				px := base[i] + drift + rng.NormFloat64()*0.02
				if x >= relevantW {
					// Irrelevant shimmering region: heavy noise.
					px += rng.NormFloat64() * 0.3
				}
				frame[i] = px
			}
		}
		if objectPresent {
			// A bright 3×3 object patch.
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					i := (objY+dy)*w + (objX + dx)
					frame[i] += 0.8
				}
			}
		}
		b := blob.FromDense(f, frame)
		b.Truth = &truth[f]
		b.Truth.Vals[0] = boolTo01(objectPresent)
		v.Frames = append(v.Frames, b)
		v.HasObject = append(v.HasObject, objectPresent)
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
