package bench

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
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
