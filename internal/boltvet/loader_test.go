package boltvet

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderBuildTags pins the build-tag contract: a file behind
// //go:build boltinvariants must be excluded by a plain Load and included —
// and analyzed, not merely parsed — when the tag is passed. The tagged
// fixture's only errflow violation lives in the tagged file, so "silently
// skipped" and "clean" are distinguishable.
func TestLoaderBuildTags(t *testing.T) {
	dir := filepath.Join("testdata", "src", "tagged")

	pkgs, err := Load(LoadConfig{}, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Fatalf("untagged load parsed %d files, want 1 (inv.go must be excluded)", n)
	}
	if findings := RunAll(pkgs, []*Analyzer{ErrFlow}); len(findings) != 0 {
		t.Fatalf("untagged load produced findings: %v", findings)
	}

	pkgs, err = Load(LoadConfig{BuildTags: []string{"boltinvariants"}}, dir)
	if err != nil {
		t.Fatalf("tagged load %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 2 {
		t.Fatalf("tagged load parsed %d files, want 2 (inv.go silently skipped)", n)
	}
	findings := RunAll(pkgs, []*Analyzer{ErrFlow})
	if len(findings) != 1 {
		t.Fatalf("tagged load: got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if filepath.Base(f.Pos.Filename) != "inv.go" {
		t.Errorf("finding at %s, want it in inv.go", f.Pos)
	}
	if !strings.Contains(f.Message, "result of f.Sync is discarded") {
		t.Errorf("finding = %s, want the discarded-Sync report", f)
	}
}

// TestLoaderImportPaths pins resolveImportPath: outside GOPATH,
// build.ImportDir degenerates to ".", and the interprocedural analyzers
// need module-qualified paths so a mutex or function gets one key across
// type-check universes.
func TestLoaderImportPaths(t *testing.T) {
	dir := filepath.Join("testdata", "src", "tagged")
	pkgs, err := Load(LoadConfig{}, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	const want = "github.com/bolt-lsm/bolt/internal/boltvet/testdata/src/tagged"
	if got := pkgs[0].ImportPath; got != want {
		t.Errorf("ImportPath = %q, want %q", got, want)
	}
}
