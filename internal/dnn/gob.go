package dnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// layerGob is the serialized form of one fully connected layer (momentum
// buffers are training state and are not persisted).
type layerGob struct {
	In, Out int
	W, B    []float64
}

// GobEncode implements gob.GobEncoder.
func (m *Model) GobEncode() ([]byte, error) {
	layers := make([]layerGob, len(m.layers))
	for i, l := range m.layers {
		layers[i] = layerGob{In: l.in, Out: l.out, W: l.w, B: l.b}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(layers); err != nil {
		return nil, fmt.Errorf("dnn: encoding model: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Model) GobDecode(data []byte) error {
	var layers []layerGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&layers); err != nil {
		return fmt.Errorf("dnn: decoding model: %w", err)
	}
	// The forward kernel trusts these shapes; a stream that breaks them is
	// refused here rather than left to panic in Score.
	if len(layers) == 0 || layers[len(layers)-1].Out != 1 {
		return fmt.Errorf("dnn: decoding model: %d layers, want at least one ending in a single output", len(layers))
	}
	for i, g := range layers {
		if g.In < 1 || g.Out < 1 || len(g.W) != g.In*g.Out || len(g.B) != g.Out || (i > 0 && g.In != layers[i-1].Out) {
			return fmt.Errorf("dnn: decoding model: layer %d is %d→%d with %d weights and %d biases", i, g.In, g.Out, len(g.W), len(g.B))
		}
	}
	m.layers = m.layers[:0]
	m.params = 0
	for _, g := range layers {
		l := &layer{
			in: g.In, out: g.Out, w: g.W, b: g.B,
			vw: make([]float64, len(g.W)),
			vb: make([]float64, len(g.B)),
		}
		m.layers = append(m.layers, l)
		m.params += len(l.w) + len(l.b)
	}
	return nil
}
