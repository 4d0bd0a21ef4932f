package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"probpred/internal/blob"
	"probpred/internal/mathx"
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
// pooledWords bitmap words, emit's step buffer and node caches for
// pooledVecs columns, and a few small slice headers.
const pinBound = 420 << 10

// TestRowWorkerPoolHygiene drives one pooled worker through every kind of
// row-stage operator — column adders with string values, more columns than
// the pool keeps, a processor doubling its morsel past morselRows, a
// projection, a select over stage vectors and one over the projection's
// rows, and a column added after it, so the stage emits from its node
// caches — over several morsels, puts it back, and then reads what the pool
// holds: no blob, row, string or column-node reference anywhere in the
// capacity of a kept buffer or node cache, no bitmap left taken, no buffer
// past morselRows, at most pooledVecs vectors, and no more pinned than
// pinBound.
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
		&Process{P: constUDF{col: "last", v: query.Str("value")}},
	)
	w := getRowWorker(len(ops))
	out := w.run(ops, rowInput{scan: true, blobs: blobs}, Config{}, nil)
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
	if w.look.m != nil {
		t.Error("the pooled worker still holds its lookup")
	}
	if w.top != 0 {
		t.Errorf("the pooled worker has %d bitmap words taken", w.top)
	}
	if len(w.nodes) != 0 || cap(w.nodes) > pooledVecs {
		t.Errorf("the pooled worker keeps %d node caches of %d, want none of at most %d", len(w.nodes), cap(w.nodes), pooledVecs)
	}
	for k, c := range w.nodes[:cap(w.nodes)] {
		if c != (nodeCache{}) {
			t.Fatalf("node cache %d still holds %q's nodes", k, c.name)
		}
	}
	for k, nd := range w.made[:cap(w.made)] {
		if nd != nil {
			t.Fatalf("emit's node list holds a node at %d", k)
		}
	}
	if cap(w.words) > pooledWords || cap(w.steps) > pooledVecs*morselRows {
		t.Errorf("%d bitmap words and %d steps kept, want <= %d and %d", cap(w.words), cap(w.steps), pooledWords, pooledVecs*morselRows)
	}
	pinned += cap(w.words)*8 + cap(w.steps)*4 + cap(w.nodes)*int(unsafe.Sizeof(nodeCache{})) + cap(w.made)*8
	pinned += cap(m.cols)*int(unsafe.Sizeof(vec{})) + cap(w.free)*int(unsafe.Sizeof([]query.Value{})) +
		cap(w.runs)*int(unsafe.Sizeof(opRun{}))
	t.Logf("a pooled worker pins %d bytes", pinned)
	if pinned > pinBound {
		t.Errorf("a pooled worker pins %d bytes, DESIGN.md states at most %d", pinned, pinBound)
	}
}

// TestSelectWalkMatchesEval holds Select's bitmap walk to Pred.Eval over
// whole rows, one row at a time. Random predicates nest And, Or and Not,
// use all six operators with numeric and string constants, and read morsels
// whose columns are stage vectors, base-row columns or both, with shadowed
// names, missing columns and vectors that mix types, at sizes on the 64-row
// word edges. Select must return the same keep list, or the same error text;
// and where no row's evaluation fails, the walk itself must give the keep
// list, not the row-at-a-time fallback.
func TestSelectWalkMatchesEval(t *testing.T) {
	rng := mathx.NewRNG(39)
	names := []string{"a", "b", "c", "d"}
	strs := []string{"SUV", "car", "red", ""}
	nums := []float64{0, math.Copysign(0, -1), 1, 2.5, 7, math.NaN(), math.Inf(1)}
	ops := []query.Op{query.OpEq, query.OpNe, query.OpLt, query.OpLe, query.OpGt, query.OpGe}
	sizes := []int{0, 1, 63, 64, 65, 200, morselRows}
	// value draws a value of col: a and b hold numbers, c and d strings,
	// unless a messy draw mixes them.
	value := func(messy bool, col string) query.Value {
		numeric := col == "a" || col == "b"
		if messy && rng.Intn(8) == 0 {
			numeric = !numeric
		}
		if numeric {
			return query.Number(nums[rng.Intn(len(nums))])
		}
		return query.Str(strs[rng.Intn(len(strs))])
	}
	var pred func(messy bool, depth int) query.Pred
	pred = func(messy bool, depth int) query.Pred {
		if depth > 0 {
			var kids []query.Pred
			for range rng.Intn(4) {
				kids = append(kids, pred(messy, depth-1))
			}
			switch rng.Intn(7) {
			case 0:
				return &query.And{Kids: kids}
			case 1:
				return &query.Or{Kids: kids}
			case 2:
				return &query.Not{Kid: pred(messy, depth-1)}
			case 3:
				if rng.Intn(4) == 0 {
					return query.True{}
				}
				return query.False{}
			}
		}
		col := names[rng.Intn(len(names))]
		if messy && rng.Intn(10) == 0 {
			col = "z"
		}
		c := &query.Clause{Col: col, Op: ops[rng.Intn(len(ops))], Val: value(messy, col)}
		if !c.Val.IsNum && !messy {
			c.Op = ops[rng.Intn(2)]
		}
		return c
	}
	walked, failed := 0, 0
	for trial := range 1500 {
		messy := rng.Intn(2) == 0
		n := sizes[rng.Intn(len(sizes))]
		w := getRowWorker(1)
		m := &w.m
		stage := names[:rng.Intn(len(names)+1)]
		if rng.Intn(3) == 0 {
			m.reset(rowInput{scan: true, blobs: make([]blob.Blob, n)}, 0, n)
			if !messy {
				stage = names // a source blob has no columns
			}
		} else {
			rows := make([]Row, n)
			for i := range rows {
				r := NewRow(blob.Blob{ID: i})
				for _, name := range names {
					if !messy || rng.Intn(6) != 0 {
						r = r.With(name, value(messy, name))
					}
					if rng.Intn(4) == 0 {
						r = r.With(name, value(messy, name)) // shadows the base's own
					}
				}
				rows[i] = r
			}
			m.reset(rowInput{rows: rows}, 0, n)
		}
		for _, name := range stage {
			for range 1 + rng.Intn(2) { // a second vector shadows the first
				vals := Batch{m: m, hi: n}.Column(name)
				for i := range vals {
					vals[i] = value(messy, name)
				}
				m.settleReps()
			}
		}
		p := pred(messy, 3)

		var want []int32
		wantErr := ""
		for i := range n {
			ok, err := p.Eval(m.row(i).Lookup)
			if err != nil {
				want, wantErr = nil, "engine: select: "+err.Error()
				break
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		got, err := (&Select{Pred: p}).filter(w, nil)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != wantErr || !slices.Equal(got, want) {
			t.Fatalf("trial %d, %d rows, %v: kept %v, %q; Eval keeps %v, %q", trial, n, p, got, gotErr, want, wantErr)
		}

		out, ok := w.selected(p)
		if ok != (wantErr == "") {
			t.Fatalf("trial %d, %v: the walk reports %v, Eval's error is %q", trial, p, ok, wantErr)
		}
		if ok {
			var bitsKept []int32
			for i := range n {
				if out[i/64]>>(i%64)&1 != 0 {
					bitsKept = append(bitsKept, int32(i))
				}
			}
			if !slices.Equal(bitsKept, want) {
				t.Fatalf("trial %d, %v: the walk keeps %v, Eval %v", trial, p, bitsKept, want)
			}
			walked++
		} else {
			failed++
		}
		w.top = 0
		putRowWorker(w)
	}
	t.Logf("%d predicates walked, %d fell back to Pred.Eval", walked, failed)
	if walked < 500 || failed < 100 {
		t.Errorf("%d walked, %d fell back: the draw no longer covers both", walked, failed)
	}
}

// tableUDF adds col to every row: vals at the row's blob ID.
type tableUDF struct {
	col  string
	vals []query.Value
}

func (u tableUDF) Name() string  { return "Table_" + u.col }
func (u tableUDF) Cost() float64 { return 1 }
func (u tableUDF) Apply(b Batch) error {
	vals := b.Column(u.col)
	for i := range vals {
		vals[i] = u.vals[b.Blob(i).ID]
	}
	return nil
}

// TestEmittedRowsShareNodesInvisibly runs rows whose column values repeat —
// -0 and +0, two NaN payloads, repeated strings — through stages that emit
// from a Process and from a Select, over several morsels.
// Every row must list the same Columns, bit for bit, as a fresh With chain of
// its values; rows of equal values must share their nodes; and With on one
// row must leave the rows sharing its nodes unchanged.
func TestEmittedRowsShareNodesInvisibly(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	kinds := []query.Value{
		query.Number(0), query.Number(math.Copysign(0, -1)), query.Number(nan1), query.Number(nan2),
		query.Str("SUV"), query.Str("red"), query.Number(1),
	}
	const n = 2*morselRows + 100
	blobs := make([]blob.Blob, n)
	tv, cv := make([]query.Value, n), make([]query.Value, n)
	for i := range blobs {
		blobs[i] = blob.Blob{ID: i}
		tv[i], cv[i] = kinds[i%len(kinds)], query.Str([]string{"red", "blue"}[i%len(kinds)%2])
	}
	red := 0
	for _, v := range cv {
		if v.Str == "red" {
			red++
		}
	}
	same := func(a, b []Column) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			x, y := a[k].Val, b[k].Val
			if a[k].Name != b[k].Name || x.IsNum != y.IsNum || x.Str != y.Str || math.Float64bits(x.Num) != math.Float64bits(y.Num) {
				return false
			}
		}
		return true
	}
	for _, last := range []Operator{nil, &Select{Pred: query.MustParse("c=red")}} {
		ops := []Operator{&Scan{Blobs: blobs}, &Process{P: tableUDF{col: "t", vals: tv}}, &Process{P: tableUDF{col: "c", vals: cv}}}
		if last != nil {
			ops = append(ops, last)
		}
		res, err := Run(Plan{Ops: ops}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows
		if want := n; len(rows) != want && (last == nil || len(rows) != red) {
			t.Fatalf("%v: %d rows", last, len(rows))
		}
		nodes := map[*column]bool{}
		for _, r := range rows {
			id := r.Blob.ID
			if want := NewRow(r.Blob).With("t", tv[id]).With("c", cv[id]).Columns(); !same(r.Columns(), want) {
				t.Fatalf("%v: row %d lists %v, want %v", last, id, r.Columns(), want)
			}
			nodes[r.cols] = true
		}
		// A run makes one node per distinct t and one per distinct (t, c)
		// pair, and its caches outlive its morsels.
		if limit := len(kinds); len(nodes) > limit {
			t.Errorf("%v: %d rows hold %d distinct nodes, want <= %d", last, len(rows), len(nodes), limit)
		}
		a := rows[0]
		var b Row
		for _, r := range rows[1:] {
			if r.cols == a.cols {
				b = r
				break
			}
		}
		if b.cols == nil {
			t.Fatalf("%v: no row shares row 0's nodes", last)
		}
		before := b.Columns()
		changed := a.With("t", query.Str("changed")).With("c", query.Number(9))
		if v, _ := changed.Lookup("t"); v.Str != "changed" {
			t.Fatalf("With did not take: %v", v)
		}
		if !same(b.Columns(), before) || !same(a.Columns(), before) {
			t.Errorf("%v: With on one row changed the rows sharing its nodes: %v, %v", last, a.Columns(), b.Columns())
		}
	}
}
