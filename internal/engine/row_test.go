package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// modelColumns lists a map's entries the way Row.Columns must: by name.
func modelColumns(m map[string]query.Value) []Column {
	var out []Column
	for k, v := range m {
		out = append(out, Column{Name: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestRowColumnListMatchesMapModel grows a random tree of rows — every step
// derives a new row from a random earlier one with With, over a name space
// small enough that most steps shadow an older column — next to the
// copy-on-write map the column list replaced, and after every step holds
// every row ever made to its map: Lookup and Get for every name, and Columns
// as the map's entries sorted by name — so rows holding the same values list
// identically whatever order With added them in, and the scanned row lists
// nothing. A row made from a parent must not show in the parent or in the
// parent's other children, which is what the re-check of all earlier rows
// catches.
func TestRowColumnListMatchesMapModel(t *testing.T) {
	names := []string{"c", "i", "o", "s", "t", "zone"}
	rng := mathx.NewRNG(7)
	rows := []Row{NewRow(blob.Blob{ID: 1})}
	models := []map[string]query.Value{{}}
	check := func(step, k int) {
		t.Helper()
		r, m := rows[k], models[k]
		for _, name := range names {
			want, wantOK := m[name]
			if got, ok := r.Lookup(name); ok != wantOK || got != want {
				t.Fatalf("step %d row %d: Lookup(%q) = %v,%v, model %v,%v", step, k, name, got, ok, want, wantOK)
			}
			if got, err := r.Get(name); (err == nil) != wantOK || got != want {
				t.Fatalf("step %d row %d: Get(%q) = %v,%v, model %v,%v", step, k, name, got, err, want, wantOK)
			}
		}
		if got, want := r.Columns(), modelColumns(m); !slices.Equal(got, want) {
			t.Fatalf("step %d row %d: Columns = %v, model %v", step, k, got, want)
		}
		if r.Blob.ID != 1 {
			t.Fatalf("step %d row %d: With lost the blob", step, k)
		}
	}
	for step := 0; step < 400; step++ {
		parent := rng.Intn(len(rows))
		name := names[rng.Intn(len(names))]
		val := query.Number(float64(step))
		if rng.Intn(2) == 0 {
			val = query.Str(fmt.Sprint("v", step))
		}
		m := map[string]query.Value{name: val}
		for k, v := range models[parent] {
			if k != name {
				m[k] = v
			}
		}
		rows, models = append(rows, rows[parent].With(name, val)), append(models, m)
		for k := range rows {
			check(step, k)
		}
	}
}

// TestRowSharedTailConcurrentReaders derives rows from one shared parent on
// several goroutines while others read the parent and each other's tails;
// under -race this is the check that a column node is never written after
// With returns.
func TestRowSharedTailConcurrentReaders(t *testing.T) {
	parent := NewRow(blob.Blob{ID: 3}).With("t", query.Str("SUV")).With("c", query.Str("red"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := parent.With("s", query.Number(float64(w*1000+i)))
				if w%2 == 0 {
					r = r.With("t", query.Str("van")) // shadows the shared tail's t
				}
				if v, ok := r.Lookup("s"); !ok || v.Num != float64(w*1000+i) {
					t.Errorf("worker %d: s = %v,%v", w, v, ok)
				}
				if v, _ := r.Lookup("c"); v.Str != "red" {
					t.Errorf("worker %d: c = %v through the shared tail", w, v)
				}
				if n := len(r.Columns()); n != 3 {
					t.Errorf("worker %d: %d columns, want 3", w, n)
				}
				if v, _ := parent.Lookup("t"); v.Str != "SUV" {
					t.Errorf("worker %d: the parent's t became %v", w, v)
				}
				if _, ok := parent.Lookup("s"); ok || len(parent.Columns()) != 2 {
					t.Errorf("worker %d: a child's column shows in the parent", w)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDroppedRowsAllocateNothing pins the paper's premise on the plumbing
// around the filter (§6: the PP runs before every UDF and must cost next to
// nothing beside them): through Scan → PPFilter → three UDFs → Select, a
// run's allocation count depends on its operators alone — not on how many
// blobs the PP drops, nor on how many survive. A dropped blob never becomes
// a row, and a survivor costs only its share of one row slab per operator
// and of one column slab per UDF batch. Across 4 000 and 40 000 blobs × 400
// and 2 000 survivors a run makes 48 allocations. The row-at-a-time
// executor this replaced (a row per blob, a one-row result slice and a
// column node per UDF per survivor) made 2 441 and 12 041: 41 plus 6 per
// survivor, at either blob count.
func TestDroppedRowsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := func(n, survivors int) float64 {
		blobs := make([]blob.Blob, n)
		keys := blob.NewTruthKeys("x", "y", "z")
		for i := range blobs {
			v := float64(i)
			blobs[i] = blob.Blob{ID: i, Truth: keys.Row(v, v, v)}
		}
		plan := Plan{Ops: []Operator{
			&Scan{Blobs: blobs},
			&PPFilter{F: thresholdFilter{col: "x", t: float64(n - survivors - 1), cost: 1}},
			&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
			&Process{P: fakeUDF{name: "Y", cost: 1, col: "y"}},
			&Process{P: fakeUDF{name: "Z", cost: 1, col: "z"}},
			&Select{Pred: query.MustParse(fmt.Sprintf("x>=%d & z>=0", n-survivors/2))},
		}}
		run := func() {
			res, err := Run(plan, Config{Workers: 1})
			if err != nil || len(res.Rows) != survivors/2 {
				t.Fatalf("n=%d survivors=%d: %d rows, err %v", n, survivors, len(res.Rows), err)
			}
		}
		run() // warm the filter-buffer pool
		return testing.AllocsPerRun(10, run)
	}
	const (
		perRun    = 64 // per-operator accounting, one output slab per operator, one column slab per UDF
		poolSlack = 8  // a GC between runs empties the filter-buffer pools
	)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range []int{4000, 40000} {
		for _, survivors := range []int{400, 2000} {
			got := allocs(n, survivors)
			if got > perRun {
				t.Errorf("%d blobs, %d survivors: %v allocations, want <= %d", n, survivors, got, perRun)
			}
			lo, hi = min(lo, got), max(hi, got)
		}
	}
	if hi-lo > poolSlack {
		t.Errorf("allocations range over %v..%v with the blob and survivor counts: dropped blobs or survivors are not free", lo, hi)
	}
}
