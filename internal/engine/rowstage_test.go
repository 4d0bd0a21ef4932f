package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// constUDF adds col to every row with the value v.
type constUDF struct {
	col string
	v   query.Value
}

func (u constUDF) Name() string  { return "Const_" + u.col }
func (u constUDF) Cost() float64 { return 1 }
func (u constUDF) Apply(b Batch) error {
	vals := b.Column(u.col)
	for i := range vals {
		vals[i] = u.v
	}
	return nil
}

// doubler emits the rows of blobs from ID from on twice, growing a morsel
// past morselRows.
type doubler struct{ from int }

func (doubler) Name() string  { return "Doubler" }
func (doubler) Cost() float64 { return 1 }
func (d doubler) Apply(b Batch) error {
	for i := range b.Len() {
		if b.Blob(i).ID >= d.from {
			b.Repeat(i, 2)
		}
	}
	return nil
}

// pinBound is the most a pooled row worker may pin, as DESIGN.md ("Row
// stage: a morsel at a time", "The pool") states it: pooledVecs value
// vectors, two row buffers and three position buffers of morselRows each,
// and a few small slice headers.
const pinBound = 384 << 10

// TestRowWorkerPoolHygiene drives one pooled worker through every kind of
// row-stage operator — column adders with string values, more columns than
// the pool keeps, a processor doubling its morsel past morselRows, a
// projection and a select — over several morsels, puts
// it back, and then reads what the pool holds: no blob, row or string
// reference anywhere in the capacity of a kept buffer, no buffer past
// morselRows, at most pooledVecs vectors, and no more pinned than pinBound.
func TestRowWorkerPoolHygiene(t *testing.T) {
	const n = 3000
	blobs := make([]blob.Blob, n)
	keys := blob.NewTruthKeys("x", "y")
	for i := range blobs {
		blobs[i] = blob.Blob{ID: i, Truth: keys.Row(float64(i), float64(i%100))}
	}
	ops := []Operator{&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}}}
	for k := range pooledVecs + 2 {
		ops = append(ops, &Process{P: constUDF{col: fmt.Sprint("s", k), v: query.Str(fmt.Sprint("value", k))}})
	}
	// Only the last morsel (blobs 2 048 to 2 999) outgrows morselRows, and
	// only its first projection's row buffer: the select halves it.
	ops = append(ops,
		&Process{P: doubler{from: 2500}},
		&Project{Rename: map[string]string{"x": "xr"}, Drop: []string{"s0"}},
		&Process{P: fakeUDF{name: "Y", cost: 1, col: "y"}},
		&Select{Pred: query.MustParse("y>=50")},
		&Project{Compute: []ComputedCol{{Name: "p", Fn: func(r Row) (query.Value, error) { return query.Number(1), nil }}}},
		&Select{Pred: query.MustParse("p>=1")},
	)
	w := getRowWorker(len(ops))
	out := w.run(ops, rowInput{scan: true, blobs: blobs}, 0, n, Config{}, nil)
	if w.failed >= 0 || len(out) != 1750 {
		t.Fatalf("%d rows, failed at %d: %v", len(out), w.failed, w.runs[max(w.failed, 0)].err)
	}
	if v, _ := out[0].Lookup("s3"); v.Str != "value3" {
		t.Fatalf("row 0: s3 = %v", v)
	}
	putRowWorker(w)

	pinned := 0
	if len(w.free) > pooledVecs {
		t.Errorf("the pool keeps %d value vectors, want <= %d", len(w.free), pooledVecs)
	}
	for k, v := range w.free {
		if cap(v) > morselRows {
			t.Errorf("value vector %d: capacity %d past morselRows", k, cap(v))
		}
		for i, x := range v[:cap(v)] {
			if x != (query.Value{}) {
				t.Fatalf("value vector %d holds %v at %d", k, x, i)
			}
		}
		pinned += cap(v) * int(unsafe.Sizeof(query.Value{}))
	}
	for k, b := range w.rowBufs {
		if cap(b) > morselRows {
			t.Errorf("row buffer %d: capacity %d past morselRows", k, cap(b))
		}
		for i, r := range b[:cap(b)] {
			if r.Blob.Truth != nil || r.Blob.Dense != nil || r.Blob.Sparse != nil || r.cols != nil {
				t.Fatalf("row buffer %d holds a reference at %d", k, i)
			}
		}
		pinned += cap(b) * int(unsafe.Sizeof(Row{}))
	}
	for _, p := range [][]int32{w.pos, w.idx, w.reps} {
		if cap(p) > morselRows {
			t.Errorf("a position buffer of capacity %d is past morselRows", cap(p))
		}
		pinned += cap(p) * 4
	}
	m := &w.m
	if m.blobs != nil || m.rows != nil || m.pos != nil || m.reps != nil || len(m.cols) != 0 {
		t.Error("the pooled morsel still points at its last base")
	}
	for i, c := range m.cols[:cap(m.cols)] {
		if c.name != "" || c.vals != nil {
			t.Fatalf("the morsel's column list holds %q at %d", c.name, i)
		}
	}
	if w.look.m != nil || w.out != nil {
		t.Error("the pooled worker still holds its lookup or output")
	}
	pinned += cap(m.cols)*int(unsafe.Sizeof(vec{})) + cap(w.free)*int(unsafe.Sizeof([]query.Value{})) +
		cap(w.runs)*int(unsafe.Sizeof(opRun{}))
	t.Logf("a pooled worker pins %d bytes", pinned)
	if pinned > pinBound {
		t.Errorf("a pooled worker pins %d bytes, DESIGN.md states at most %d", pinned, pinBound)
	}
}
