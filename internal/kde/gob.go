package kde

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"probpred/internal/knn"
	"probpred/internal/mathx"
)

// kdeGob is the serialized form of a Model: the class-conditional point
// sets, in training order, plus hyperparameters. The indexes are rebuilt on
// decode.
type kdeGob struct {
	Pos, Neg  []mathx.Vec
	H         float64
	Neighbors int
	Dim       int
}

// GobEncode implements gob.GobEncoder.
func (m *Model) GobEncode() ([]byte, error) {
	g := kdeGob{H: m.h, Neighbors: m.neighbors, Dim: m.dim}
	for i := 0; i < m.pos.Len(); i++ {
		g.Pos = append(g.Pos, m.pos.Point(i))
	}
	for i := 0; i < m.neg.Len(); i++ {
		g.Neg = append(g.Neg, m.neg.Point(i))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, fmt.Errorf("kde: encoding model: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Model) GobDecode(data []byte) error {
	var g kdeGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return fmt.Errorf("kde: decoding model: %w", err)
	}
	m.h = g.H
	m.neighbors = g.Neighbors
	m.dim = g.Dim
	m.pos = knn.Build(g.Pos)
	m.neg = knn.Build(g.Neg)
	return nil
}
