package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

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
// run's allocations do not depend on how many blobs the PP drops, and the
// rows Select drops allocate nothing either. A dropped blob never becomes a
// row; the UDFs write their values into the row stage's pooled vectors, and
// Rows and their column nodes are made once, for the rows Select keeps, one
// node slab per morsel. So at 400, 2 000 and 3 000 survivors (Select keeping
// a half or a tenth), 4 000 and 40 000 blobs make the same allocations — 38
// plus one per morsel of 1 024 survivors, not one per UDF per morsel — and
// the bytes stay within one 56-byte row per survivor for the output slab
// plus one 56-byte column node per UDF per row Select keeps. The column
// slabs this replaced were one per UDF per morsel, sized by every row the
// UDF saw: 47 allocations and 0.69 MB against 40 and 0.44 MB at 3 000
// survivors, half of them kept.
func TestDroppedRowsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const udfs = 3
	measure := func(n, survivors, kept int) (allocs, bytes float64) {
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
			&Select{Pred: query.MustParse(fmt.Sprintf("x>=%d & z>=0", n-kept))},
		}}
		run := func() {
			res, err := Run(plan, Config{Workers: 1})
			if err != nil || len(res.Rows) != kept {
				t.Fatalf("n=%d survivors=%d: %d rows, err %v", n, survivors, len(res.Rows), err)
			}
		}
		run() // warm the pools
		allocs = testing.AllocsPerRun(10, run)
		// The least of three ten-run means: a GC that empties the pools
		// mid-batch makes a run refill them.
		bytes = math.Inf(1)
		for range 3 {
			const runs = 10
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&m1)
			bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	rowBytes, nodeBytes := int(unsafe.Sizeof(Row{})), int(unsafe.Sizeof(column{}))
	const (
		perRun    = 40 // per-operator accounting, the output slab
		poolSlack = 8  // a GC between runs empties the pools
		// The per-run accounting, and the allocator rounding each slab up to
		// whole pages.
		perBytes = 48 << 10
	)
	for _, c := range []struct{ survivors, kept int }{{400, 200}, {2000, 1000}, {3000, 1500}, {3000, 300}} {
		morsels := (c.survivors + morselRows - 1) / morselRows
		var seen [2][2]float64
		for k, n := range []int{4000, 40000} {
			allocs, bytes := measure(n, c.survivors, c.kept)
			t.Logf("%d blobs, %d survivors, %d kept: %v allocations, %.0f bytes", n, c.survivors, c.kept, allocs, bytes)
			if limit := perRun + morsels; allocs > float64(limit) {
				t.Errorf("%d blobs, %d survivors: %v allocations, want <= %d", n, c.survivors, allocs, limit)
			}
			if limit := c.survivors*rowBytes + c.kept*udfs*nodeBytes + perBytes; bytes > float64(limit) {
				t.Errorf("%d blobs, %d survivors, %d kept: %.0f bytes, want <= %d", n, c.survivors, c.kept, bytes, limit)
			}
			seen[k] = [2]float64{allocs, bytes}
		}
		if d := seen[1][0] - seen[0][0]; d > poolSlack || d < -poolSlack {
			t.Errorf("%d survivors: %v allocations at 4 000 blobs, %v at 40 000: dropped blobs are not free", c.survivors, seen[0][0], seen[1][0])
		}
		if d := seen[1][1] - seen[0][1]; d > perBytes || d < -perBytes {
			t.Errorf("%d survivors: %.0f bytes at 4 000 blobs, %.0f at 40 000: dropped blobs are not free", c.survivors, seen[0][1], seen[1][1])
		}
	}
}
