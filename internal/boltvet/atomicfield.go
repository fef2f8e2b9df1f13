package boltvet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField extends vet's copylocks to BoLT's metrics and state structs,
// and owns the `//boltvet:guardedby atomic` rule. Fields whose type comes
// from sync/atomic (atomic.Int64, atomic.Uint64, atomic.Value, ...) and
// plain fields annotated `//boltvet:guardedby atomic` must never be:
//
//   - read or written plainly (atomic fields expose only their
//     Load/Store/Add/... methods; annotated plain fields may only be used
//     as &x.f operands for the sync/atomic functions; an annotated array
//     of atomics is checked element by element, like any atomic field),
//   - passed or assigned by value, or
//   - copied via their enclosing struct (assignment, value parameter,
//     value receiver, value return type, range value, composite-literal
//     element).
//
// Composite literals themselves are exempt: constructing a fresh value
// (`m := Metrics{}`) is initialization, not a copy of live state. vet's
// copylocks does not catch any of this because sync/atomic types have no
// Lock method.
var AtomicField = &Analyzer{
	Name:       "atomicfield",
	Doc:        "forbids plain access to sync/atomic (or //boltvet:guardedby atomic) fields and copies of structs containing them",
	RunProgram: runAtomicField,
}

// runAtomicField checks every package against the program's atomic
// annotations ("pkgpath.StructName" -> field name set), so an annotated
// field is policed in every package that can reach it.
func runAtomicField(prog *Program) []Finding {
	annotated := make(map[string]map[string]bool)
	for _, spec := range prog.guardTable() {
		if spec.guard != "atomic" {
			continue
		}
		if annotated[spec.owner] == nil {
			annotated[spec.owner] = make(map[string]bool)
		}
		annotated[spec.owner][spec.fieldName] = true
	}
	r := &reporter{analyzer: "atomicfield"}
	for _, p := range prog.Pkgs {
		atomicFieldPackage(p, annotated, r)
	}
	return r.out
}

func atomicFieldPackage(p *Package, annotated map[string]map[string]bool, r *reporter) {
	for _, file := range p.Files {
		parents := buildParentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				checkFieldAccess(p, v, parents, annotated, r)
			case *ast.AssignStmt:
				for _, rhs := range v.Rhs {
					checkValueCopy(p, rhs, annotated, r, "assigned")
				}
			case *ast.ValueSpec:
				for _, val := range v.Values {
					checkValueCopy(p, val, annotated, r, "assigned")
				}
			case *ast.CallExpr:
				if tv, ok := p.Info.Types[v.Fun]; ok && tv.IsType() {
					return true // conversion, not a call
				}
				if isLenCap(p, v) {
					return true
				}
				for _, arg := range v.Args {
					checkValueCopy(p, arg, annotated, r, "passed")
				}
			case *ast.CompositeLit:
				for _, elt := range v.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					checkValueCopy(p, elt, annotated, r, "copied into a composite literal:")
				}
			case *ast.ReturnStmt:
				for _, res := range v.Results {
					checkValueCopy(p, res, annotated, r, "returned")
				}
			case *ast.RangeStmt:
				if v.Value != nil {
					// With :=, the value ident is a definition, not a use;
					// its type lives in Defs rather than Types.
					t := typeOf(p, v.Value)
					if t == nil {
						if id, ok := v.Value.(*ast.Ident); ok {
							if obj := p.Info.Defs[id]; obj != nil {
								t = obj.Type()
							}
						}
					}
					if t != nil && atomicBearing(t, annotated) {
						r.at(p, v.Value.Pos(), "range copies values of %s, which contains sync/atomic fields; range over indices or pointers", typeLabel(t))
					}
				}
			case *ast.FuncDecl:
				checkSignature(p, v, annotated, r)
			}
			return true
		})
	}
}

// checkFieldAccess enforces the plain-access rule on one selector.
func checkFieldAccess(p *Package, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node, annotated map[string]map[string]bool, r *reporter) {
	fieldVar := selectedField(p, sel)
	if fieldVar == nil {
		return
	}
	parent := parents[sel]
	if pp, ok := parent.(*ast.ParenExpr); ok {
		parent = parents[pp]
	}
	if isAtomicNamed(fieldVar.Type()) {
		switch ctx := parent.(type) {
		case *ast.SelectorExpr:
			if ctx.X == sel {
				return // x.f.Load() — method access is the atomic API
			}
		case *ast.UnaryExpr:
			if ctx.Op == token.AND {
				return // &x.f — pointer passing, no copy
			}
		}
		r.at(p, sel.Sel.Pos(), "plain access to atomic field %s.%s (type %s); use its Load/Store/Add methods",
			ownerName(fieldVar), fieldVar.Name(), typeLabel(fieldVar.Type()))
		return
	}
	owner := annotatedOwner(p, sel, fieldVar, annotated)
	if owner == "" || atomicBearing(fieldVar.Type(), nil) {
		return // an array of atomics: its elements are atomic fields
	}
	if ctx, ok := parent.(*ast.UnaryExpr); ok && ctx.Op == token.AND {
		return // &x.f for atomic.LoadInt64/AddInt64/...
	}
	r.at(p, sel.Sel.Pos(), "field %s.%s is //boltvet:guardedby atomic; access it only through sync/atomic functions on &%s",
		owner, fieldVar.Name(), fieldVar.Name())
}

// checkValueCopy flags e when its value is an atomic-bearing struct/array
// being copied (anything but constructing a fresh composite literal).
func checkValueCopy(p *Package, e ast.Expr, annotated map[string]map[string]bool, r *reporter, verb string) {
	e = ast.Unparen(e)
	if _, isLit := e.(*ast.CompositeLit); isLit {
		return
	}
	t := typeOf(p, e)
	if t == nil || !atomicBearing(t, annotated) {
		return
	}
	r.at(p, e.Pos(), "value of %s is %s by value, copying its sync/atomic fields; use a pointer", typeLabel(t), verb)
}

// checkSignature flags value receivers, parameters, and results of
// atomic-bearing type on a function declaration.
func checkSignature(p *Package, fd *ast.FuncDecl, annotated map[string]map[string]bool, r *reporter) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			tv, ok := p.Info.Types[f.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if atomicBearing(tv.Type, annotated) {
				r.at(p, f.Type.Pos(), "%s %s of %s takes %s by value, copying its sync/atomic fields; use a pointer",
					what, typeLabel(tv.Type), fd.Name.Name, typeLabel(tv.Type))
			}
		}
	}
	check(fd.Recv, "receiver")
	if fd.Type.Params != nil {
		check(fd.Type.Params, "parameter")
	}
	if fd.Type.Results != nil {
		check(fd.Type.Results, "result")
	}
}

// annotatedOwner returns the struct name when sel resolves to a
// //boltvet:guardedby atomic field, else "".
func annotatedOwner(p *Package, sel *ast.SelectorExpr, fieldVar *types.Var, annotated map[string]map[string]bool) string {
	t := typeOf(p, sel.X)
	if !annotated[typeKey(t)][fieldVar.Name()] {
		return ""
	}
	return namedOf(t).Obj().Name()
}

// selectedField resolves sel to the struct field it selects, or nil when
// it is not a field selection.
func selectedField(p *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	// Qualified references (pkg.Var) land in Uses, not Selections; those
	// are package variables, not fields.
	return nil
}

// ownerName renders the declaring struct of a field for diagnostics.
func ownerName(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name()
	}
	return "?"
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

// isAtomicNamed reports whether t is a named type from sync/atomic
// (without unwrapping pointers: *atomic.Int64 is a pointer, which is fine
// to hold and pass).
func isAtomicNamed(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// atomicBearing reports whether t is a non-pointer struct/array that
// (recursively) contains a sync/atomic field or a //boltvet:guardedby
// atomic field.
func atomicBearing(t types.Type, annotated map[string]map[string]bool) bool {
	return bearingRec(t, annotated, make(map[types.Type]bool))
}

func bearingRec(t types.Type, annotated map[string]map[string]bool, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		if isAtomicNamed(v) {
			return true
		}
		if annotated[typeKey(v)] != nil {
			return true
		}
		return bearingRec(v.Underlying(), annotated, seen)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if bearingRec(v.Field(i).Type(), annotated, seen) {
				return true
			}
		}
	case *types.Array:
		return bearingRec(v.Elem(), annotated, seen)
	}
	return false
}

// isLenCap reports whether call is the len or cap builtin (no copy).
func isLenCap(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return id.Name == "len" || id.Name == "cap"
}
