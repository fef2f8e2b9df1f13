package boltvet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixtures under testdata/src declare expected findings with trailing
// comments of the form:
//
//	// want `regexp`
//
// Every finding must match exactly one want on its line, and every want
// must be matched by a finding — the same convention (minus the
// go/analysis dependency) as analysistest.

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantSegRe = regexp.MustCompile("`([^`]*)`")

func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, after, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			segs := wantSegRe.FindAllStringSubmatch(after, -1)
			if len(segs) == 0 {
				t.Fatalf("%s:%d: malformed want comment (need backquoted regexp)", e.Name(), i+1)
			}
			for _, seg := range segs {
				re, err := regexp.Compile(seg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, seg[1], err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", dir)
	}
	return wants
}

func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	runFixtureFile(t, fixture, "", analyzers...)
}

// runFixtureFile is runFixture restricted to the findings and wants of one
// file of the fixture package; an empty file means the whole package.
func runFixtureFile(t *testing.T, fixture, file string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkgs, err := Load(LoadConfig{}, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", dir)
	}
	findings := RunAll(pkgs, analyzers)
	wants := collectWants(t, dir)
	if file != "" {
		var kept []*expectation
		for _, w := range wants {
			if w.file == file {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			t.Fatalf("fixture %s declares no // want expectations in %s", dir, file)
		}
		wants = kept
	}

	for _, f := range findings {
		if file != "" && filepath.Base(f.Pos.Filename) != file {
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.hit && filepath.Base(f.Pos.Filename) == w.file && f.Pos.Line == w.line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched `%s`", w.file, w.line, w.re)
		}
	}
}

func TestBarrierOrderFixture(t *testing.T) { runFixture(t, "barrierorder", BarrierOrder) }
func TestLockOrderFixture(t *testing.T)    { runFixture(t, "lockorder", LockOrder) }
func TestErrFlowFixture(t *testing.T)      { runFixture(t, "errflow", ErrFlow) }

// TestSyncErrFixture checks errflow's direct-site rules on their own: a
// barrier or Close error discarded bare, via _, by defer or go, or by a
// dead assignment at the call itself.
func TestSyncErrFixture(t *testing.T)    { runFixtureFile(t, "errflow", "direct.go", ErrFlow) }
func TestMustCloseFixture(t *testing.T)  { runFixture(t, "mustclose", MustClose) }
func TestGoLifetimeFixture(t *testing.T) { runFixture(t, "golifetime", GoLifetime) }
func TestCondCheckFixture(t *testing.T)  { runFixture(t, "condcheck", CondCheck) }

// TestGuardedByFixture checks the whole guard vocabulary: the mu, atomic
// and none rules.
func TestGuardedByFixture(t *testing.T) { runFixture(t, "guardedby", GuardedBy) }

// TestSummaryCheckFixture asserts directly instead of via // want comments:
// a directive is the entire line comment (its reason runs to the end of
// the line), which leaves no room for a trailing want on the same line.
func TestSummaryCheckFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "summarycheck")
	pkgs, err := Load(LoadConfig{}, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	findings := RunAll(pkgs, []*Analyzer{SummaryCheck})
	wantParts := []string{
		"boltvet:ignore without a reason",
		`unknown analyzer "snycerr"`,
		"boltvet:ignore-begin without a reason",
		`ignore-begin names unknown analyzer "snycerr"`,
		"boltvet:ignore-end has no matching boltvet:ignore-begin",
		"unknown directive //boltvet:mustclos checks nothing",
		"unknown directive //boltvet:gaurdedby checks nothing",
		"unknown directive //boltvet:gorutine checks nothing",
		"boltvet:ignore-begin has no matching boltvet:ignore-end",
	}
	if len(findings) != len(wantParts) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(wantParts), findings)
	}
	for i, part := range wantParts {
		if !strings.Contains(findings[i].Message, part) {
			t.Errorf("finding %d = %s, want it to contain %q", i, findings[i], part)
		}
	}
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) != "fixture.go" {
			t.Errorf("finding at %s, want it in fixture.go", f.Pos)
		}
	}
}

// TestIgnoreBlockSuppresses pins the span mechanics end-to-end: the
// mustclose fixture's blockSuppressed region leaks twice inside a
// reasoned begin/end pair, which must suppress exactly those two.
func TestIgnoreBlockSuppresses(t *testing.T) {
	pkgs, err := Load(LoadConfig{}, filepath.Join("testdata", "src", "mustclose"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var begin, end int
	for _, d := range pkgs[0].directives().list {
		switch d.verb {
		case "ignore-begin":
			begin = d.line
		case "ignore-end":
			end = d.line
		}
	}
	if begin == 0 || end <= begin {
		t.Fatalf("fixture block spans lines %d-%d; want one begin/end pair", begin, end)
	}
	inBlock := func(findings []Finding) int {
		n := 0
		for _, f := range findings {
			if f.Pos.Line >= begin && f.Pos.Line <= end {
				n++
			}
		}
		return n
	}
	prog := BuildProgram(pkgs)
	ComputeSummaries(prog)
	if n := inBlock(MustClose.RunProgram(prog)); n != 2 {
		t.Errorf("unsuppressed: %d mustclose findings in the block (lines %d-%d), want 2", n, begin, end)
	}
	if n := inBlock(RunAll(pkgs, []*Analyzer{MustClose})); n != 0 {
		t.Errorf("%d findings inside the ignore-begin/end block", n)
	}
}

// BenchmarkRunAll times one bolt-vet pass over the module (call graph,
// summaries and every analyzer), with the packages loaded once outside the
// timer, so `-count 5` gives the suite's wall time as a median.
func BenchmarkRunAll(b *testing.B) {
	pkgs, err := Load(LoadConfig{Tests: true}, filepath.Join("..", "..")+"/...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := RunAll(pkgs, All()); len(findings) != 0 {
			b.Fatalf("%d findings, want 0: %v", len(findings), findings[0])
		}
	}
}

// TestFixturesTripTheDriver pins the CI contract: pointing bolt-vet at any
// fixture package must produce findings (the driver exits 1 when findings
// are non-empty), so a regression that silences an analyzer outright fails
// here rather than silently vetting nothing.
func TestFixturesTripTheDriver(t *testing.T) {
	for _, fixture := range []string{
		"barrierorder", "lockorder", "errflow", "guardedby", "mustclose", "golifetime", "condcheck",
		"summarycheck",
	} {
		pkgs, err := Load(LoadConfig{}, filepath.Join("testdata", "src", fixture))
		if err != nil {
			t.Fatalf("load %s: %v", fixture, err)
		}
		if findings := RunAll(pkgs, All()); len(findings) == 0 {
			t.Errorf("fixture %s produced no findings; bolt-vet would exit 0 on it", fixture)
		}
	}
}

// TestSuiteSelfClean dogfoods the analyzers on this package itself.
func TestSuiteSelfClean(t *testing.T) {
	pkgs, err := Load(LoadConfig{Tests: true}, ".")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			t.Errorf("typecheck %s: %v", p.ImportPath, te)
		}
	}
	for _, f := range RunAll(pkgs, All()) {
		t.Errorf("finding in boltvet itself: %s", f)
	}
}
