package testkit

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestKitImports keeps the kit a test-only package at the bottom of the
// stack: no non-test file outside internal/testkit imports it (or its
// oracle), and the kit itself imports none of the packages whose internal
// tests use it.
func TestKitImports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	kitDir := filepath.Join(root, "internal", "testkit")
	forbidden := map[string]bool{}
	for _, p := range []string{"optimizer", "serve", "stream", "adapt"} {
		forbidden["probpred/internal/"+p] = true
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		inKit := strings.HasPrefix(path, kitDir+string(filepath.Separator))
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case !inKit && (p == "probpred/internal/testkit" || strings.HasPrefix(p, "probpred/internal/testkit/")):
				t.Errorf("%s imports %s: only _test.go files may", rel, p)
			case filepath.Dir(path) == kitDir && forbidden[p]:
				t.Errorf("%s imports %s, whose internal tests import the kit", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed only %d non-test files under %s", files, root)
	}
}
