package boltvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MustClose tracks resource obligations: values of a type annotated
//
//	//boltvet:mustclose
//
// (in the type declaration's doc comment) carry a Close/Release
// obligation from their creation to a discharge, and a creation no path
// discharges is a leak finding — the static twin of the runtime fd-leak
// tests. Iterators, table readers, WAL writers, and vfs files are the
// annotated population in this repo.
//
// A creation is any call whose result includes an obligated type, or a
// composite literal of one. The obligation is discharged when the value
// (or any local alias of it, tracked flow-insensitively):
//
//   - has a discharge method called on it (Close, Release, Unref, Abort,
//     Finish — deferred or not),
//   - is returned (ownership transfers to the caller),
//   - is stored into a field, map, slice element, composite literal, or
//     sent on a channel (an owner object takes over),
//   - escapes into a function literal or behind & (lifetime unknowable),
//   - or is passed to a call that discharges that parameter — computed
//     interprocedurally: each function gets a per-parameter discharge
//     summary, iterated with the call graph to a fixed point, so a value
//     handed down a helper chain that never closes it is reported at the
//     creation with the forwarding chain as witness.
//
// Calls the graph cannot resolve (stdlib, builtins, function values) are
// assumed to take ownership: false negatives are cheaper than false
// positives that train people to ignore the analyzer. Test files are
// skipped (the runtime leak tests own them); error-path leaks inside a
// function that closes on the happy path are invisible to the
// flow-insensitive discharge check (documented soundness limit).
var MustClose = &Analyzer{
	Name:       "mustclose",
	Doc:        "tracks Close/Release obligations on //boltvet:mustclose types from creation to discharge",
	RunProgram: runMustClose,
}

var mustcloseRe = regexp.MustCompile(`^//\s*boltvet:mustclose\s*(?:--\s*\S.*)?$`)

// dischargeMethodNames are the method names that settle an obligation
// when called on the value.
var dischargeMethodNames = map[string]bool{
	"close": true, "release": true, "unref": true, "abort": true, "finish": true,
}

func isDischargeMethod(name string) bool {
	return dischargeMethodNames[strings.ToLower(name)]
}

// paramFate is one function's discharge summary entry for one parameter.
type paramFate struct {
	discharges bool
	// forward names the known callees the parameter was handed to without
	// any of them discharging it (the witness chain for leak reports).
	forward []string
}

func runMustClose(prog *Program) []Finding {
	obligated := collectMustClose(prog)
	if len(obligated) == 0 {
		return nil
	}

	// Per-parameter discharge summaries, to a fixed point: a function
	// discharges a parameter if it closes/stores/returns it, or hands it
	// to a callee that does.
	fates := make(map[string]map[int]*paramFate)
	funcs := prog.sortedFuncs()
	for pass := 0; pass < maxSummaryPasses; pass++ {
		changed := false
		for _, fi := range funcs {
			if fi.Decl == nil || funcInTestFile(fi) {
				continue
			}
			nf := paramFates(prog, fi, obligated, fates)
			if !paramFatesEqual(fates[fi.Key], nf) {
				fates[fi.Key] = nf
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	var out []Finding
	for _, fi := range funcs {
		if fi.Decl == nil || funcInTestFile(fi) {
			continue
		}
		out = append(out, checkCreations(prog, fi, obligated, fates)...)
	}
	return out
}

// collectMustClose gathers annotated type names ("pkgpath.Name") across
// the program.
func collectMustClose(prog *Program) map[string]bool {
	set := make(map[string]bool)
	for _, p := range prog.Pkgs {
		path := ""
		if p.Types != nil {
			path = p.Types.Path()
		}
		for _, file := range p.Files {
			if isTestFile(p, file) {
				continue
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					groups := []*ast.CommentGroup{ts.Doc, ts.Comment}
					if len(gd.Specs) == 1 {
						groups = append(groups, gd.Doc)
					}
					for _, cg := range groups {
						if cg == nil {
							continue
						}
						for _, c := range cg.List {
							if mustcloseRe.MatchString(c.Text) {
								set[path+"."+ts.Name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return set
}

// obligatedNamed resolves t (through pointers and aliases) to an
// annotated named type, or nil.
func obligatedNamed(t types.Type, obligated map[string]bool) *types.Named {
	named := namedOf(t)
	if named == nil {
		return nil
	}
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	if obligated[pkg+"."+named.Obj().Name()] {
		return named
	}
	return nil
}

// paramFates computes fi's discharge summary: for each parameter of
// obligated type, whether fi settles its obligation.
func paramFates(prog *Program, fi *FuncInfo, obligated map[string]bool, fates map[string]map[int]*paramFate) map[int]*paramFate {
	p := fi.Pkg
	if fi.Decl.Type.Params == nil {
		return nil
	}
	var out map[int]*paramFate
	idx := 0
	for _, field := range fi.Decl.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies a position
		}
		for i := 0; i < n; i++ {
			pos := idx
			idx++
			if len(field.Names) == 0 {
				continue // unnamed: nothing to track, callers see no discharge
			}
			name := field.Names[i]
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			t := obj.Type()
			if slice, ok := t.Underlying().(*types.Slice); ok {
				t = slice.Elem() // variadic or slice-of-obligated parameter
			}
			if obligatedNamed(t, obligated) == nil {
				continue
			}
			fate := valueFate(prog, fi, map[types.Object]bool{obj: true}, fates)
			if out == nil {
				out = make(map[int]*paramFate)
			}
			out[pos] = fate
		}
	}
	return out
}

func paramFatesEqual(a, b map[int]*paramFate) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.discharges != bv.discharges {
			return false
		}
	}
	return true
}

// valueFate decides how a set of aliased locals holding one obligated
// value is used in fi: discharged, or leaked with a forwarding witness.
func valueFate(prog *Program, fi *FuncInfo, objs map[types.Object]bool, fates map[string]map[int]*paramFate) *paramFate {
	p := fi.Pkg
	parents := fi.parentMap()
	sites := make(map[*ast.CallExpr]*CallSite, len(fi.Calls))
	for _, cs := range fi.Calls {
		sites[cs.Call] = cs
	}

	// Alias propagation: a plain var-to-var copy carries the obligation.
	for {
		grew := false
		inspectSkipFuncLit(fi.Decl.Body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i := range as.Rhs {
				rid, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				robj := p.Info.Uses[rid]
				if robj == nil || !objs[robj] {
					continue
				}
				if lid, ok := as.Lhs[i].(*ast.Ident); ok && lid.Name != "_" {
					lobj := p.Info.Defs[lid]
					if lobj == nil {
						lobj = p.Info.Uses[lid]
					}
					if lobj != nil && !objs[lobj] {
						objs[lobj] = true
						grew = true
					}
				}
			}
		})
		if !grew {
			break
		}
	}

	fate := &paramFate{}
	// Escape into a function literal: lifetime unknowable, assume settled.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && objs[obj] {
						fate.discharges = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
	if fate.discharges {
		return fate
	}

	inspectSkipFuncLit(fi.Decl.Body, func(n ast.Node) {
		if fate.discharges {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Uses[id]
		if obj == nil || !objs[obj] {
			return
		}
		parent := parents[id]
		if pp, ok := parent.(*ast.ParenExpr); ok {
			parent = parents[pp]
		}
		switch ctx := parent.(type) {
		case *ast.SelectorExpr:
			if ctx.X == id && isDischargeMethod(ctx.Sel.Name) {
				fate.discharges = true
			}
		case *ast.ReturnStmt:
			fate.discharges = true
		case *ast.AssignStmt:
			for _, l := range ctx.Lhs {
				if l == id {
					return // write target
				}
			}
			for i, r := range ctx.Rhs {
				if ast.Unparen(r) == id && i < len(ctx.Lhs) {
					if _, isIdent := ctx.Lhs[i].(*ast.Ident); !isIdent {
						fate.discharges = true // stored into a field/element
					}
					return // var-to-var copies handled by aliasing
				}
			}
		case *ast.CallExpr:
			if ctx.Fun == id {
				return // calling a function value, not passing the value
			}
			discharged, forward := callDischarges(prog, p, ctx, id, sites, fates)
			if discharged {
				fate.discharges = true
			} else if fate.forward == nil {
				fate.forward = forward
			}
		case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			fate.discharges = true
		case *ast.UnaryExpr:
			if ctx.Op == token.AND {
				fate.discharges = true
			}
		}
	})
	return fate
}

// callDischarges decides whether passing id as an argument of call
// settles the obligation: yes for opaque callees (assumed to take
// ownership) and for any resolved callee whose summary discharges that
// parameter; otherwise the known-callee chain is the leak witness.
func callDischarges(prog *Program, p *Package, call *ast.CallExpr, id *ast.Ident, sites map[*ast.CallExpr]*CallSite, fates map[string]map[int]*paramFate) (bool, []string) {
	argPos := -1
	for i, a := range call.Args {
		if ast.Unparen(a) == id {
			argPos = i
			break
		}
	}
	if argPos < 0 {
		return true, nil // inside a nested expression: out of scope, assume settled
	}
	cs, ok := sites[call]
	if !ok {
		return true, nil // unresolved callee: assumed to take ownership
	}
	var forward []string
	for _, target := range cs.Targets {
		callee := prog.Funcs[target]
		if callee == nil || callee.Decl == nil {
			return true, nil // imported body unseen: assume ownership
		}
		pos := argPos
		if np := numParams(callee.Decl); np > 0 && pos >= np {
			pos = np - 1 // variadic tail
		}
		f := fates[callee.Key][pos]
		if f != nil && f.discharges {
			return true, nil
		}
		if forward == nil {
			forward = []string{callee.Name}
			if f != nil {
				forward = append(forward, f.forward...)
			}
		}
	}
	return false, forward
}

func numParams(fd *ast.FuncDecl) int {
	if fd.Type.Params == nil {
		return 0
	}
	n := 0
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// checkCreations reports fi's creations of obligated values that no path
// discharges.
func checkCreations(prog *Program, fi *FuncInfo, obligated map[string]bool, fates map[string]map[int]*paramFate) []Finding {
	p := fi.Pkg
	parents := fi.parentMap()
	sites := make(map[*ast.CallExpr]*CallSite, len(fi.Calls))
	for _, cs := range fi.Calls {
		sites[cs.Call] = cs
	}
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:      p.Fset.Position(pos),
			Analyzer: "mustclose",
			Message:  fmt.Sprintf(format, args...),
		})
	}

	inspectSkipFuncLit(fi.Decl.Body, func(n ast.Node) {
		var creation ast.Expr
		var label, typeName string
		var resultIdx []int // obligated positions in a call's result tuple
		switch v := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[v.Fun]; ok && tv.IsType() {
				return // conversion
			}
			idx, name := obligatedResults(p, v, obligated)
			if len(idx) == 0 {
				return
			}
			creation, label, typeName, resultIdx = v, exprString(v.Fun), name, idx
		case *ast.CompositeLit:
			named := obligatedNamed(typeOf(p, v), obligated)
			if named == nil {
				return
			}
			creation, label, typeName = v, typeLabel(typeOf(p, v)), named.Obj().Name()
			if u, ok := parents[v].(*ast.UnaryExpr); ok && u.Op == token.AND {
				creation = u // classify from the &T{...} expression
			}
		default:
			return
		}

		parent := parents[creation]
		if pp, ok := parent.(*ast.ParenExpr); ok {
			parent = parents[pp]
		}
		switch ctx := parent.(type) {
		case *ast.ExprStmt:
			report(creation.Pos(), "result of %s is a %s (//boltvet:mustclose) but is discarded; close it or store it", label, typeName)
		case *ast.AssignStmt:
			lhs := obligatedLhs(ctx, creation, resultIdx)
			for _, l := range lhs {
				lid, ok := l.(*ast.Ident)
				if !ok {
					continue // stored into a field/element: transferred
				}
				if lid.Name == "_" {
					report(creation.Pos(), "result of %s is a %s (//boltvet:mustclose) but is discarded as _; close it or store it", label, typeName)
					continue
				}
				obj := p.Info.Defs[lid]
				if obj == nil {
					obj = p.Info.Uses[lid]
				}
				if obj == nil {
					continue
				}
				fate := valueFate(prog, fi, map[types.Object]bool{obj: true}, fates)
				if !fate.discharges {
					msg := fmt.Sprintf("%s returned by %s is never closed, released, stored, or returned by %s", lid.Name, label, fi.Name)
					if len(fate.forward) > 0 {
						msg += fmt.Sprintf(" (passed to %s, which never closes it)", strings.Join(fate.forward, " -> "))
					}
					report(creation.Pos(), "%s", msg)
				}
			}
		case *ast.CallExpr:
			if discharged, forward := creationArgDischarges(prog, ctx, creation, sites, fates); !discharged {
				report(creation.Pos(), "result of %s is a %s (//boltvet:mustclose) passed to %s, which never closes or stores it",
					label, typeName, strings.Join(forward, " -> "))
			}
		case *ast.ValueSpec:
			for i, val := range ctx.Values {
				if ast.Unparen(val) != creation && val != creation {
					continue
				}
				if i < len(ctx.Names) {
					obj := p.Info.Defs[ctx.Names[i]]
					if obj == nil {
						continue
					}
					fate := valueFate(prog, fi, map[types.Object]bool{obj: true}, fates)
					if !fate.discharges {
						msg := fmt.Sprintf("%s returned by %s is never closed, released, stored, or returned by %s", ctx.Names[i].Name, label, fi.Name)
						if len(fate.forward) > 0 {
							msg += fmt.Sprintf(" (passed to %s, which never closes it)", strings.Join(fate.forward, " -> "))
						}
						report(creation.Pos(), "%s", msg)
					}
				}
			}
		}
		// Return, composite literal, send, &: ownership transfers; other
		// contexts (comparisons, type asserts) are conservatively silent.
	})
	return out
}

// obligatedResults returns the positions of call's results whose type is
// obligated, plus a label for the (first) obligated type.
func obligatedResults(p *Package, call *ast.CallExpr, obligated map[string]bool) ([]int, string) {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil, ""
	}
	if t, ok := tv.Type.(*types.Tuple); ok {
		var idx []int
		name := ""
		for i := 0; i < t.Len(); i++ {
			if named := obligatedNamed(t.At(i).Type(), obligated); named != nil {
				idx = append(idx, i)
				if name == "" {
					name = named.Obj().Name()
				}
			}
		}
		return idx, name
	}
	if named := obligatedNamed(tv.Type, obligated); named != nil {
		return []int{0}, named.Obj().Name()
	}
	return nil, ""
}

// obligatedLhs maps a creation's obligated result positions to the
// assignment targets they bind to.
func obligatedLhs(as *ast.AssignStmt, creation ast.Expr, resultIdx []int) []ast.Expr {
	if len(as.Rhs) == 1 {
		var lhs []ast.Expr
		if len(resultIdx) == 0 {
			resultIdx = []int{0}
		}
		for _, i := range resultIdx {
			if i < len(as.Lhs) {
				lhs = append(lhs, as.Lhs[i])
			}
		}
		return lhs
	}
	for j, r := range as.Rhs {
		if ast.Unparen(r) == creation && j < len(as.Lhs) {
			return []ast.Expr{as.Lhs[j]}
		}
	}
	return nil
}

// creationArgDischarges handles a creation fed straight into another call
// (f(NewIter())): settled when the callee is opaque or its summary
// discharges the position.
func creationArgDischarges(prog *Program, call *ast.CallExpr, creation ast.Expr, sites map[*ast.CallExpr]*CallSite, fates map[string]map[int]*paramFate) (bool, []string) {
	argPos := -1
	for i, a := range call.Args {
		if ast.Unparen(a) == creation {
			argPos = i
			break
		}
	}
	if argPos < 0 {
		return true, nil
	}
	cs, ok := sites[call]
	if !ok {
		return true, nil
	}
	var forward []string
	for _, target := range cs.Targets {
		callee := prog.Funcs[target]
		if callee == nil || callee.Decl == nil {
			return true, nil
		}
		pos := argPos
		if np := numParams(callee.Decl); np > 0 && pos >= np {
			pos = np - 1
		}
		f := fates[callee.Key][pos]
		if f != nil && f.discharges {
			return true, nil
		}
		if forward == nil {
			forward = []string{callee.Name}
			if f != nil {
				forward = append(forward, f.forward...)
			}
		}
	}
	return false, forward
}
