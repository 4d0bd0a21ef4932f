package mathx

import "sync"

// Buf is a reusable []float64 scratch buffer handed out by a BufPool.
type Buf struct{ V []float64 }

// BufPool recycles []float64 scratch buffers on hot paths. It pools the *Buf
// holder rather than the slice: sync.Pool.Put of a slice (or of a pointer to
// a local slice header) boxes a fresh value on every call, one allocation per
// use of the pool. The zero BufPool is ready to use.
type BufPool struct{ p sync.Pool }

// Get returns a buffer whose V has length n and unspecified contents.
func (bp *BufPool) Get(n int) *Buf {
	b, _ := bp.p.Get().(*Buf)
	if b == nil {
		b = &Buf{}
	}
	if cap(b.V) < n {
		b.V = make([]float64, n)
	}
	b.V = b.V[:n]
	return b
}

// Put returns b to the pool; the caller must not use b or b.V afterwards.
func (bp *BufPool) Put(b *Buf) { bp.p.Put(b) }
