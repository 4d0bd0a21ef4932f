package bench

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"probpred/internal/core"
	"probpred/internal/data"
)

// goldenPath holds `go run ./cmd/ppbench -quick`'s stdout: every registry
// experiment at seed 42, quick scale. After a change that moves an exact
// number on purpose, regenerate it with
//
//	go run ./cmd/ppbench -quick > internal/bench/testdata/quick_seed42.golden
//
// and review the diff.
const goldenPath = "testdata/quick_seed42.golden"

// TestPaperGolden renders every experiment through Report.Print, as
// ppbench does, and holds the exact output to the golden byte for byte. A
// mismatch names the experiment and its first differing line.
func TestPaperGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range IDs() {
		quickReport(t, id).Print(&got, io.Discard, 0)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	exp := "(before the first experiment)"
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		g, w := line(gotLines, i), line(wantLines, i)
		if header, ok := strings.CutPrefix(w, "== "); ok {
			exp, _, _ = strings.Cut(header, ":")
		}
		if g != w {
			t.Fatalf("%s: line %d of %s differs\n got: %s\nwant: %s", exp, i+1, goldenPath, g, w)
		}
	}
}

// line returns lines[i], or a marker past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// TestCategoryPPMemoInvisible empties the category-PP memo, then runs
// table5 (which trains every PP it uses) and fig15 (which reuses three of
// table5's): each report must equal its section of the golden, where both
// reuse PPs fig9 trained.
func TestCategoryPPMemoInvisible(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	categoryPPs.Lock()
	clear(categoryPPs.m)
	categoryPPs.Unlock()
	for _, id := range []string{"table5", "fig15"} {
		rep, err := Run(id, quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got, want := rep.String()+"\n", goldenSection(string(want), id); got != want {
			t.Errorf("%s run cold:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// goldenSection returns experiment id's part of the golden, from its header
// to the next experiment's.
func goldenSection(golden, id string) string {
	start := strings.Index(golden, "== "+id+": ")
	if start < 0 {
		return ""
	}
	if end := strings.Index(golden[start:], "\n== "); end >= 0 {
		return golden[start : start+end+1]
	}
	return golden[start:]
}

// TestCategoryPPMemoConcurrent asks for one category PP from several
// goroutines at once: every caller gets the one PP trained.
func TestCategoryPPMemoConcurrent(t *testing.T) {
	d := data.LSHTC(data.LSHTCConfig{Docs: 300, Seed: 5})
	pps := make([]*core.PP, 4)
	var wg sync.WaitGroup
	for i := range pps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pp, _, err := trainCategoryPP(d, 0, "FH+SVM", 5)
			if err != nil {
				t.Error(err)
			}
			pps[i] = pp
		}()
	}
	wg.Wait()
	for i, pp := range pps {
		if pp == nil || pp != pps[0] {
			t.Fatalf("caller %d got PP %p, caller 0 got %p", i, pp, pps[0])
		}
	}
}
