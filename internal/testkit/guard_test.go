package testkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
	forbidden := map[string]bool{}
	for _, p := range []string{"optimizer", "serve", "stream"} {
		forbidden["probpred/internal/"+p] = true
	}
	kitDir := filepath.Join("internal", "testkit")
	forEachImport(t, func(rel, p string) {
		switch {
		case !under(rel, kitDir) && (p == "probpred/internal/testkit" || strings.HasPrefix(p, "probpred/internal/testkit/")):
			t.Errorf("%s imports %s: only _test.go files may", rel, p)
		case filepath.Dir(rel) == kitDir && forbidden[p]:
			t.Errorf("%s imports %s, whose internal tests import the kit", rel, p)
		}
	})
}

// TestMetricsImports keeps the metrics registry in the serving layer: each
// lower layer's numbers live in the ledger, spans and events it returns, so
// only the packages that serve or scrape a registry import it from a non-test
// file.
func TestMetricsImports(t *testing.T) {
	allowed := []string{
		"internal/serve", "internal/pplog", "internal/bench",
		"internal/testkit/oracle", "cmd/ppbench", "benchmark",
	}
	forEachImport(t, func(rel, p string) {
		if p != "probpred/internal/metrics" {
			return
		}
		for _, dir := range allowed {
			if under(rel, filepath.FromSlash(dir)) {
				return
			}
		}
		t.Errorf("%s imports %s: only %v may", rel, p, allowed)
	})
}

// forEachImport calls f with the module-relative path of every non-test Go
// file in the module and each package it imports.
func forEachImport(t *testing.T, f func(rel, imp string)) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			f(rel, p)
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

// under reports whether the file at rel lies in dir or below it.
func under(rel, dir string) bool {
	return strings.HasPrefix(rel, dir+string(filepath.Separator))
}

// manifestPath is the gate manifest: one "package-dir TestName reason" line
// per test a change must never lose.
const manifestPath = ".github/gates.txt"

// TestGateManifest holds every entry of the gate manifest to a
// `func TestX(t *testing.T)` in its package's _test.go files, so a renamed
// or deleted gate fails here instead of silently dropping out of CI.
func TestGateManifest(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(root, manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]map[string]bool{} // package dir → its test functions
	seen := map[string]bool{}
	for i, line := range strings.Split(string(text), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("%s:%d: want \"package test reason\", got %q", manifestPath, i+1, line)
			continue
		}
		pkg, name := fields[0], fields[1]
		if seen[pkg+" "+name] {
			t.Errorf("%s:%d: %s %s listed twice", manifestPath, i+1, pkg, name)
		}
		seen[pkg+" "+name] = true
		if tests[pkg] == nil {
			tests[pkg] = testFuncs(t, filepath.Join(root, pkg))
		}
		if !tests[pkg][name] {
			t.Errorf("%s:%d: no func %s(t *testing.T) in %s's _test.go files", manifestPath, i+1, name, pkg)
		}
	}
	if len(seen) == 0 {
		t.Fatalf("%s lists no gates", manifestPath)
	}
}

// testFuncs returns the names of the top-level `func TestX(t *testing.T)`
// declarations in dir's _test.go files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") && takesTestingT(fn.Type) {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}

// takesTestingT reports whether a function type is func(*testing.T).
func takesTestingT(ft *ast.FuncType) bool {
	params := ft.Params.List
	return ft.Results == nil && len(params) == 1 && len(params[0].Names) <= 1 &&
		types.ExprString(params[0].Type) == "*testing.T"
}
