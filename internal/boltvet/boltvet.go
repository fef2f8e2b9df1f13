// Package boltvet implements BoLT-specific static analysis. The engine's
// crash consistency rests on invariants that ordinary Go tooling cannot
// see: durability-barrier errors must never be dropped (errflow), the
// MANIFEST commit record must not validate data that has not been synced
// (barrierorder), and mutex-guarded state must only be touched under its
// mutex or from methods following the *Locked naming convention
// (guardedby, lockorder). cmd/bolt-vet runs every analyzer over the
// module; the analyzers themselves are tested against testdata fixtures
// with `// want "regexp"` expectations.
//
// Findings can be suppressed with a comment on the same line or the line
// above:
//
//	//boltvet:ignore errflow -- reason
//	//boltvet:ignore all -- reason
//
// or for a whole function by placing the comment in the function's doc
// comment, or for a region (generated or test-harness code) by bracketing
// it:
//
//	//boltvet:ignore-begin errflow -- reason
//	...
//	//boltvet:ignore-end
//
// The reason is mandatory: a suppression without ` -- <why>` suppresses
// nothing and is itself reported by the summary analyzer — the
// suppression is greppable review surface and must say what was reviewed.
// Unbalanced begin/end pairs likewise suppress nothing and are reported.
package boltvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors holds soft type-checking errors; analysis proceeds with
	// partial type information.
	TypeErrors []error
}

// Analyzer is one named check. Run sees one package at a time; RunProgram
// sees the whole-program call graph with computed summaries. An analyzer
// sets either or both.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(p *Package) []Finding
	RunProgram func(prog *Program) []Finding
}

// All returns every analyzer in the suite.
func All() []*Analyzer {
	return []*Analyzer{BarrierOrder, LockOrder, ErrFlow, AtomicField, GuardedBy, MustClose, GoLifetime, CondCheck, SummaryCheck}
}

// AnalyzerTiming is one row of the -timing report: how long an analyzer
// took and how many findings survived suppression and deduplication. The
// synthetic "(program)" row accounts for the shared call-graph build and
// summary fixed point that every interprocedural analyzer amortizes.
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
	Findings int
}

// RunAll applies every analyzer to every package, dropping suppressed
// findings and sorting the rest by position. When any enabled analyzer is
// interprocedural, the call graph and function summaries are built once
// over all packages.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunAllTimed(pkgs, analyzers)
	return findings
}

// RunAllTimed is RunAll plus per-analyzer wall time, in run order.
func RunAllTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming) {
	sup := newSuppressions(pkgs)
	var out []Finding
	keep := func(f Finding) {
		if !sup.suppressed(f) {
			out = append(out, f)
		}
	}
	var timings []AnalyzerTiming
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil || prog != nil {
			continue
		}
		start := time.Now()
		prog = BuildProgram(pkgs)
		ComputeSummaries(prog)
		timings = append(timings, AnalyzerTiming{Name: "(program)", Duration: time.Since(start)})
	}
	for _, a := range analyzers {
		start := time.Now()
		if a.Run != nil {
			for _, p := range pkgs {
				for _, f := range a.Run(p) {
					keep(f)
				}
			}
		}
		if a.RunProgram != nil {
			for _, f := range a.RunProgram(prog) {
				keep(f)
			}
		}
		timings = append(timings, AnalyzerTiming{Name: a.Name, Duration: time.Since(start)})
	}
	seen := make(map[string]bool, len(out))
	dedup := out[:0]
	for _, f := range out {
		if s := f.String(); !seen[s] {
			seen[s] = true
			dedup = append(dedup, f)
		}
	}
	out = dedup
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	counts := make(map[string]int, len(timings))
	for _, f := range out {
		counts[f.Analyzer]++
	}
	for i := range timings {
		timings[i].Findings = counts[timings[i].Name]
	}
	return out, timings
}

// ignoreRe matches a boltvet:ignore directive, capturing the analyzer name
// list and the (mandatory for suppression) ` -- reason` tail. Anchored at
// the start of the comment so prose that merely mentions the directive
// syntax does not parse as one.
var ignoreRe = regexp.MustCompile(`^//\s*boltvet:ignore\s+([A-Za-z][A-Za-z, ]*?)\s*(?:--\s*(\S.*))?$`)

// ignoreBeginRe and ignoreEndRe bracket a block suppression. The begin
// carries the analyzer list and mandatory reason; the end is bare.
var (
	ignoreBeginRe = regexp.MustCompile(`^//\s*boltvet:ignore-begin\s+([A-Za-z][A-Za-z, ]*?)\s*(?:--\s*(\S.*))?$`)
	ignoreEndRe   = regexp.MustCompile(`^//\s*boltvet:ignore-end\s*$`)
)

// parseIgnoreBlockDirective decodes a begin/end marker: kind is "begin",
// "end", or "" for non-markers. A reasonless begin parses (so hygiene can
// report it) but suppresses nothing.
func parseIgnoreBlockDirective(text string) (kind string, names []string, reason string) {
	if ignoreEndRe.MatchString(text) {
		return "end", nil, ""
	}
	m := ignoreBeginRe.FindStringSubmatch(text)
	if m == nil {
		return "", nil, ""
	}
	for _, n := range strings.Split(m[1], ",") {
		n = strings.TrimSpace(n)
		if n != "" {
			names = append(names, n)
		}
	}
	return "begin", names, strings.TrimSpace(m[2])
}

// ignoreBlockProblem is one hygiene defect in a file's begin/end pairs,
// reported by the summary analyzer.
type ignoreBlockProblem struct {
	pos  token.Pos
	kind string // "reasonless", "unterminated", "orphan-end"
}

// collectIgnoreBlocks pairs a file's begin/end markers into suppression
// spans (well-formed, reasoned pairs only) and reports the rest.
func collectIgnoreBlocks(p *Package, f *ast.File) (spans []supSpan, problems []ignoreBlockProblem) {
	type open struct {
		line     int
		names    map[string]bool // nil when reasonless
		pos      token.Pos
		file     string
		reasoned bool
	}
	var stack []open
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			kind, list, reason := parseIgnoreBlockDirective(c.Text)
			switch kind {
			case "begin":
				pos := p.Fset.Position(c.Pos())
				o := open{line: pos.Line, pos: c.Pos(), file: pos.Filename, reasoned: reason != ""}
				if !o.reasoned {
					problems = append(problems, ignoreBlockProblem{pos: c.Pos(), kind: "reasonless"})
				} else if len(list) > 0 {
					o.names = make(map[string]bool, len(list))
					for _, n := range list {
						o.names[n] = true
					}
				}
				stack = append(stack, o)
			case "end":
				if len(stack) == 0 {
					problems = append(problems, ignoreBlockProblem{pos: c.Pos(), kind: "orphan-end"})
					continue
				}
				o := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if o.names != nil {
					spans = append(spans, supSpan{file: o.file, start: o.line, end: p.Fset.Position(c.Pos()).Line, names: o.names})
				}
			}
		}
	}
	for _, o := range stack {
		problems = append(problems, ignoreBlockProblem{pos: o.pos, kind: "unterminated"})
	}
	return spans, problems
}

// suppressions indexes //boltvet:ignore comments by file line and by
// function extent.
type suppressions struct {
	fset *token.FileSet
	// lines maps filename -> line -> set of suppressed analyzer names
	// ("all" suppresses everything).
	lines map[string]map[int]map[string]bool
	// spans suppress an analyzer over a position range (function bodies
	// whose doc comment carries the ignore).
	spans []supSpan
}

type supSpan struct {
	file       string
	start, end int // lines, inclusive
	names      map[string]bool
}

// parseIgnoreDirective decodes a boltvet:ignore comment. ok is false when
// the comment is not a directive at all; a directive without a reason
// returns ok with an empty reason (reported by the summary analyzer, and
// suppressing nothing).
func parseIgnoreDirective(text string) (names []string, reason string, ok bool) {
	m := ignoreRe.FindStringSubmatch(text)
	if m == nil {
		return nil, "", false
	}
	for _, n := range strings.Split(m[1], ",") {
		n = strings.TrimSpace(n)
		if n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(m[2]), true
}

// parseIgnoreNames returns the analyzer set a comment suppresses: only
// reasoned directives suppress.
func parseIgnoreNames(text string) map[string]bool {
	list, reason, ok := parseIgnoreDirective(text)
	if !ok || reason == "" || len(list) == 0 {
		return nil
	}
	names := make(map[string]bool, len(list))
	for _, n := range list {
		names[n] = true
	}
	return names
}

func newSuppressions(pkgs []*Package) *suppressions {
	s := &suppressions{lines: make(map[string]map[int]map[string]bool)}
	for _, p := range pkgs {
		s.fset = p.Fset
		for _, f := range p.Files {
			blockSpans, _ := collectIgnoreBlocks(p, f)
			s.spans = append(s.spans, blockSpans...)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names := parseIgnoreNames(c.Text)
					if names == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					byLine := s.lines[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						s.lines[pos.Filename] = byLine
					}
					if byLine[pos.Line] == nil {
						byLine[pos.Line] = make(map[string]bool)
					}
					for n := range names {
						byLine[pos.Line][n] = true
					}
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				var names map[string]bool
				for _, c := range fd.Doc.List {
					if n := parseIgnoreNames(c.Text); n != nil {
						if names == nil {
							names = make(map[string]bool)
						}
						for k := range n {
							names[k] = true
						}
					}
				}
				if names != nil {
					start := p.Fset.Position(fd.Pos())
					end := p.Fset.Position(fd.End())
					s.spans = append(s.spans, supSpan{file: start.Filename, start: start.Line, end: end.Line, names: names})
				}
			}
		}
	}
	return s
}

func matchNames(names map[string]bool, analyzer string) bool {
	return names != nil && (names["all"] || names[analyzer])
}

func (s *suppressions) suppressed(f Finding) bool {
	if byLine := s.lines[f.Pos.Filename]; byLine != nil {
		if matchNames(byLine[f.Pos.Line], f.Analyzer) || matchNames(byLine[f.Pos.Line-1], f.Analyzer) {
			return true
		}
	}
	for _, sp := range s.spans {
		if sp.file == f.Pos.Filename && f.Pos.Line >= sp.start && f.Pos.Line <= sp.end && matchNames(sp.names, f.Analyzer) {
			return true
		}
	}
	return false
}

// --- shared type helpers ---

var errorType = types.Universe.Lookup("error").Type()

// errorResultIndices returns the result positions of call holding an error.
func errorResultIndices(p *Package, call *ast.CallExpr) []int {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if t, ok := tv.Type.(*types.Tuple); ok {
		var out []int
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				out = append(out, i)
			}
		}
		return out
	}
	if types.Identical(tv.Type, errorType) {
		return []int{0}
	}
	return nil
}

// calleeName returns the bare name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// exprString renders a call target for diagnostics (e.g. "f.Sync").
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	}
	return "expr"
}

// isTestFile reports whether the file is a *_test.go file.
func isTestFile(p *Package, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// receiverTypeName returns the receiver's named type for a method decl
// ("" for plain functions), stripping any pointer.
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr: // generic receiver lru[K, V]
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}
