package boltvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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

// dischargeMethodNames are the method names that settle an obligation
// when called on the value.
var dischargeMethodNames = map[string]bool{
	"close": true, "release": true, "unref": true, "abort": true, "finish": true,
}

// paramFate is one function's discharge summary entry for one parameter.
type paramFate struct {
	discharges bool
	// forward names the known callees the parameter was handed to without
	// any of them discharging it (the witness chain for leak reports).
	forward []string
}

// mustClose is one run's state: the annotated types and the parameter
// fate summaries.
type mustClose struct {
	prog  *Program
	types map[string]bool // typeKey of every //boltvet:mustclose type
	fates map[*FuncInfo]map[int]*paramFate
}

func runMustClose(prog *Program) []Finding {
	mc := &mustClose{prog: prog, types: make(map[string]bool), fates: make(map[*FuncInfo]map[int]*paramFate)}
	for _, p := range prog.Pkgs {
		mc.collect(p)
	}
	if len(mc.types) == 0 {
		return nil
	}
	// A function discharges a parameter if it closes, stores or returns
	// it, or hands it to a callee that does.
	summarize(prog, mc.fates, mc.paramFates, paramFatesEqual)
	r := &reporter{analyzer: "mustclose"}
	for _, fi := range prog.funcs() {
		mc.checkCreations(fi, r)
	}
	return r.out
}

// collect records p's annotated types: the directive sits in the type
// spec's doc or line comment, or the declaration's doc when it declares
// one type.
func (mc *mustClose) collect(p *Package) {
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
				ts := spec.(*ast.TypeSpec)
				groups := []*ast.CommentGroup{ts.Doc, ts.Comment}
				if len(gd.Specs) == 1 {
					groups = append(groups, gd.Doc)
				}
				if p.inGroups("mustclose", groups...) != nil {
					mc.types[qualify(p.Types, ts.Name.Name)] = true
				}
			}
		}
	}
}

// obligated returns the name of the annotated type behind t, or "".
func (mc *mustClose) obligated(t types.Type) string {
	if !mc.types[typeKey(t)] {
		return ""
	}
	return namedOf(t).Obj().Name()
}

// paramFates computes fi's discharge summary: for each parameter of
// obligated type (or a slice of one), whether fi settles its obligation.
func (mc *mustClose) paramFates(fi *FuncInfo) map[int]*paramFate {
	var out map[int]*paramFate
	pos := 0
	for _, field := range fi.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			pos++ // unnamed: nothing to track, callers see no discharge
		}
		for _, name := range field.Names {
			pos++
			obj := fi.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			t := obj.Type()
			if slice, ok := t.Underlying().(*types.Slice); ok {
				t = slice.Elem() // variadic or slice-of-obligated parameter
			}
			if mc.obligated(t) == "" {
				continue
			}
			if out == nil {
				out = make(map[int]*paramFate)
			}
			out[pos-1] = mc.fate(fi, obj)
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

// fate traces one obligated local of fi to a discharge, or to the callee
// chain it was forwarded down without one. mustclose's sink rule: a
// discharge method, a return or a store settles the obligation, and so
// does a call whose callee discharges that parameter.
func (mc *mustClose) fate(fi *FuncInfo, obj types.Object) *paramFate {
	t := &tracer{p: fi.Pkg, parents: fi.parentMap(), body: fi.Decl.Body, objs: map[types.Object]bool{obj: true}}
	t.grow()
	f := &paramFate{discharges: t.captured()}
	t.uses(func(u use) {
		if f.discharges {
			return
		}
		switch u.kind {
		case useSelect:
			f.discharges = dischargeMethodNames[strings.ToLower(u.sel)]
		case useReturn, useStore:
			f.discharges = true
		case useArg:
			var forward []string
			if f.discharges, forward = mc.argDischarges(fi, u.call, u.arg); f.forward == nil {
				f.forward = forward
			}
		}
	})
	return f
}

// argDischarges decides whether passing a value as argument arg of call
// settles its obligation: yes for callees the graph cannot resolve
// (assumed to take ownership) and for any resolved callee whose summary
// discharges that parameter; otherwise the known-callee chain is the leak
// witness.
func (mc *mustClose) argDischarges(fi *FuncInfo, call *ast.CallExpr, arg int) (bool, []string) {
	cs := fi.site(call)
	if cs == nil {
		return true, nil
	}
	var forward []string
	for _, target := range cs.Targets {
		callee := mc.prog.Funcs[target]
		if callee == nil {
			return true, nil // imported body unseen: assume ownership
		}
		pos := arg
		if sig := declSignature(callee); sig != nil && sig.Params().Len() > 0 && pos >= sig.Params().Len() {
			pos = sig.Params().Len() - 1 // variadic tail
		}
		f := mc.fates[callee][pos]
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

// checkCreations reports fi's creations of obligated values that no path
// discharges.
func (mc *mustClose) checkCreations(fi *FuncInfo, r *reporter) {
	p := fi.Pkg
	t := &tracer{p: p, parents: fi.parentMap()}
	inspectSkipFuncLit(fi.Decl.Body, func(n ast.Node) {
		var creation ast.Expr
		var label, typeName string
		var results []int // obligated positions in a call's result tuple
		switch v := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[v.Fun]; ok && tv.IsType() {
				return // conversion
			}
			creation, label = v, exprString(v.Fun)
			results, typeName = mc.obligatedResults(typeOf(p, v))
		case *ast.CompositeLit:
			creation, label, typeName = v, typeLabel(typeOf(p, v)), mc.obligated(typeOf(p, v))
			if u, ok := t.parents[v].(*ast.UnaryExpr); ok && u.Op == token.AND {
				creation = u // classify from the &T{...} expression
			}
		}
		if typeName == "" {
			return
		}
		// A return, composite literal, send or & transfers ownership;
		// other contexts (comparisons, type asserts) are conservatively
		// silent.
		t.classify(creation, results, func(u use) {
			switch u.kind {
			case useStmt:
				r.at(p, creation.Pos(), "result of %s is a %s (//boltvet:mustclose) but is discarded; close it or store it", label, typeName)
			case useBlank:
				r.at(p, creation.Pos(), "result of %s is a %s (//boltvet:mustclose) but is discarded as _; close it or store it", label, typeName)
			case useCopy:
				if f := mc.fate(fi, u.obj); !f.discharges {
					msg := fmt.Sprintf("%s returned by %s is never closed, released, stored, or returned by %s", u.obj.Name(), label, fi.Name)
					if len(f.forward) > 0 {
						msg += fmt.Sprintf(" (passed to %s, which never closes it)", strings.Join(f.forward, " -> "))
					}
					r.at(p, creation.Pos(), "%s", msg)
				}
			case useArg:
				if discharged, forward := mc.argDischarges(fi, u.call, u.arg); !discharged {
					r.at(p, creation.Pos(), "result of %s is a %s (//boltvet:mustclose) passed to %s, which never closes or stores it",
						label, typeName, strings.Join(forward, " -> "))
				}
			}
		})
	})
}

// obligatedResults returns the positions of a call result type t that are
// obligated, plus the (first) obligated type's name.
func (mc *mustClose) obligatedResults(t types.Type) ([]int, string) {
	tuple, ok := t.(*types.Tuple)
	if !ok {
		if name := mc.obligated(t); name != "" {
			return []int{0}, name
		}
		return nil, ""
	}
	var idx []int
	name := ""
	for i := 0; i < tuple.Len(); i++ {
		if n := mc.obligated(tuple.At(i).Type()); n != "" {
			idx = append(idx, i)
			if name == "" {
				name = n
			}
		}
	}
	return idx, name
}
