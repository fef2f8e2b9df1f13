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
	"slices"
	"sort"
	"strings"
	"time"
	"unicode"
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

	dirs *directiveIndex // see directives
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
	return []*Analyzer{BarrierOrder, LockOrder, ErrFlow, GuardedBy, MustClose, GoLifetime, CondCheck, SummaryCheck}
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

// directiveVerbs is the whole //boltvet: vocabulary. Any other verb is a
// typo that would silently check nothing, and summary reports it.
var directiveVerbs = map[string]bool{
	"ignore": true, "ignore-begin": true, "ignore-end": true,
	"guardedby": true, "goroutine": true, "mustclose": true,
}

// directiveRe matches a //boltvet:<verb> comment. Anchored at the start of
// the comment so prose that merely mentions the syntax is not a directive.
var directiveRe = regexp.MustCompile(`^//\s*boltvet:(\S*)(.*)$`)

// directive is one parsed //boltvet:<verb> <args> -- <reason> comment.
type directive struct {
	verb   string
	args   []string // split at spaces and commas
	reason string   // after " -- "; "" when absent
	pos    token.Pos
	file   string
	line   int
}

// directiveIndex is a package's directives, parsed once and read by the
// suppressions, summary, guardedby, golifetime and mustclose.
type directiveIndex struct {
	list      []*directive // file order
	byComment map[*ast.Comment]*directive
}

// directives returns p's directive index, building it on first use.
func (p *Package) directives() *directiveIndex {
	if p.dirs != nil {
		return p.dirs
	}
	p.dirs = &directiveIndex{byComment: make(map[*ast.Comment]*directive)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				args, reason, _ := strings.Cut(m[2], "--")
				pos := p.Fset.Position(c.Pos())
				d := &directive{
					verb:   m[1],
					args:   strings.FieldsFunc(args, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }),
					reason: strings.TrimSpace(reason),
					pos:    c.Pos(),
					file:   pos.Filename,
					line:   pos.Line,
				}
				p.dirs.list = append(p.dirs.list, d)
				p.dirs.byComment[c] = d
			}
		}
	}
	return p.dirs
}

// inGroups returns the directive with the given verb among the comment
// groups (the last one wins), or nil.
func (p *Package) inGroups(verb string, groups ...*ast.CommentGroup) *directive {
	var found *directive
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d := p.directives().byComment[c]; d != nil && d.verb == verb {
				found = d
			}
		}
	}
	return found
}

// ignoreNames returns the analyzers an ignore directive suppresses: only
// a reasoned directive naming at least one suppresses anything.
func ignoreNames(d *directive) map[string]bool {
	if d == nil || d.verb != "ignore" || d.reason == "" || len(d.args) == 0 {
		return nil
	}
	return nameSet(d.args)
}

func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// ignoreBlocks pairs p's ignore-begin/ignore-end directives, file by file,
// into suppression spans (well-formed, reasoned pairs only). A reasonless
// begin, an unterminated begin and an orphan end suppress nothing and are
// reported to r (nil drops them).
func ignoreBlocks(p *Package, r *reporter) []supSpan {
	var spans []supSpan
	var open []*directive
	unterminated := func() {
		for _, d := range open {
			r.at(p, d.pos, "boltvet:ignore-begin has no matching boltvet:ignore-end; the block suppresses nothing")
		}
		open = nil
	}
	file := ""
	for _, d := range p.directives().list {
		if d.file != file {
			unterminated()
			file = d.file
		}
		switch d.verb {
		case "ignore-begin":
			if d.reason == "" {
				r.at(p, d.pos, "boltvet:ignore-begin without a reason suppresses nothing; write `//boltvet:ignore-begin <analyzer> -- <why>`")
			}
			open = append(open, d)
		case "ignore-end":
			if len(open) == 0 {
				r.at(p, d.pos, "boltvet:ignore-end has no matching boltvet:ignore-begin")
				continue
			}
			b := open[len(open)-1]
			open = open[:len(open)-1]
			if b.reason != "" && len(b.args) > 0 {
				spans = append(spans, supSpan{file: file, start: b.line, end: d.line, names: nameSet(b.args)})
			}
		}
	}
	unterminated()
	return spans
}

// suppressions indexes //boltvet:ignore comments by file line and by
// function extent.
type suppressions struct {
	// lines maps filename -> line -> set of suppressed analyzer names
	// ("all" suppresses everything).
	lines map[string]map[int]map[string]bool
	// spans suppress an analyzer over a line range: function bodies whose
	// doc comment carries the ignore, and ignore-begin/end blocks.
	spans []supSpan
}

type supSpan struct {
	file       string
	start, end int // lines, inclusive
	names      map[string]bool
}

func newSuppressions(pkgs []*Package) *suppressions {
	s := &suppressions{lines: make(map[string]map[int]map[string]bool)}
	for _, p := range pkgs {
		s.spans = append(s.spans, ignoreBlocks(p, nil)...)
		for _, d := range p.directives().list {
			names := ignoreNames(d)
			if names == nil {
				continue
			}
			if s.lines[d.file] == nil {
				s.lines[d.file] = make(map[int]map[string]bool)
			}
			if s.lines[d.file][d.line] == nil {
				s.lines[d.file][d.line] = make(map[string]bool)
			}
			for n := range names {
				s.lines[d.file][d.line][n] = true
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				names := make(map[string]bool)
				for _, c := range fd.Doc.List {
					for n := range ignoreNames(p.directives().byComment[c]) {
						names[n] = true
					}
				}
				if len(names) > 0 {
					start, end := p.Fset.Position(fd.Pos()), p.Fset.Position(fd.End())
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

// reporter collects one analyzer's findings.
type reporter struct {
	analyzer string
	out      []Finding
}

// at records a finding at pos in p; a nil reporter drops it.
func (r *reporter) at(p *Package, pos token.Pos, format string, args ...any) {
	if r != nil {
		r.out = append(r.out, Finding{Pos: p.Fset.Position(pos), Analyzer: r.analyzer, Message: fmt.Sprintf(format, args...)})
	}
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

// qualify is the program-wide key of a package-level name,
// "pkgpath.Name"; a struct field extends its type's key,
// "pkgpath.Type.field". Keys are strings because the same type can have
// distinct objects in different type-check universes.
func qualify(pkg *types.Package, name string) string {
	if pkg == nil {
		return "." + name
	}
	return pkg.Path() + "." + name
}

// typeKey keys the named type behind t (through pointers and aliases), or
// returns "".
func typeKey(t types.Type) string {
	if named := namedOf(t); named != nil {
		return qualify(named.Obj().Pkg(), named.Obj().Name())
	}
	return ""
}

// typeOf returns the checked type of e, or nil.
func typeOf(p *Package, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// typeLabel renders t compactly for diagnostics (package-name qualified).
func typeLabel(t types.Type) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}

// fieldKey keys field name of the named type behind t, or returns "".
func fieldKey(t types.Type, name string) string {
	if k := typeKey(t); k != "" {
		return k + "." + name
	}
	return ""
}

// isSync reports whether obj is one of the named members of package sync.
func isSync(obj types.Object, names ...string) bool {
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && slices.Contains(names, obj.Name())
}

// isSyncType reports whether t (through pointers and aliases) is one of the
// named sync types.
func isSyncType(t types.Type, names ...string) bool {
	named := namedOf(t)
	return named != nil && isSync(named.Obj(), names...)
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
