package boltvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy verifies the field-guard vocabulary — the one way a field
// declares what protects it — and checks every access site against the
// summary-backed lock-set analysis:
//
//	//boltvet:guardedby mu            — accessed only with mu (a
//	                                    sync.Mutex/RWMutex field of the
//	                                    same struct) held
//	//boltvet:guardedby atomic        — a sync/atomic type (or array of
//	                                    one), whose copies go vet's
//	                                    copylocks reports
//	//boltvet:guardedby none -- <why> — deliberately outside the regime;
//	                                    the reason is mandatory
//
// The annotation goes in the field's doc or line comment. Once one field
// of a struct is annotated, every mutable field of that struct must be
// (guard fields themselves — mutexes, conds, waitgroups — and embedded
// fields are exempt): partial annotation is reported, so the vocabulary
// cannot silently rot as fields are added.
//
// Mutex-guarded accesses are checked with the same structured abstract
// interpreter that powers lockorder: an access is legal only when the
// named mutex is provably held on every path to it. Exceptions, in order:
//
//   - the selector's root is a local the function itself constructed
//     (composite literal or new) — a fresh object is unshared, which is
//     what makes constructors like Open analyzable without annotations;
//   - the enclosing function is named *Locked: the access becomes an
//     entry obligation, propagated interprocedurally — every call site of
//     the *Locked function must hold the mutex (or be *Locked itself and
//     pass the obligation up), which is what turns the naming convention
//     from advisory into verified;
//   - an access after the function has released the mutex and before it
//     provably re-acquires it is reported outright (the unlock-then-
//     relock window), even inside *Locked methods.
//
// Soundness limits (shared with the summary engine, DESIGN.md §6a): lock
// identity is type-based, not instance-based; function-literal bodies and
// test files are not walked; calls the graph cannot resolve are opaque;
// fields reached through embedding are not matched to their annotations.
// The -race tier stays the dynamic backstop.
var GuardedBy = &Analyzer{
	Name:       "guardedby",
	Doc:        "verifies //boltvet:guardedby field annotations against the summary-backed lock-set analysis",
	RunProgram: runGuardedBy,
}

// guardSpec is one mutex-guarded field's parsed annotation.
type guardSpec struct {
	guard string // mutex field name
	// key is the resolved lock key ("pkgpath.Struct.mu").
	key string
	// owner is the struct's typeKey; the names label diagnostics.
	owner      string
	structName string
	fieldName  string
}

// guardTable indexes mutex annotations by "pkgpath.Struct.field"; atomic
// and none fields are checked at their declaration only.
type guardTable map[string]*guardSpec

// guardedAccess is one entry obligation of a *Locked function: a guarded
// field it (or a *Locked callee, transitively) touches without acquiring
// the mutex itself.
type guardedAccess struct {
	key   string
	spec  *guardSpec
	chain []string // call chain witness, empty for a direct access
	pos   token.Pos
}

// guardTable returns the program's parsed annotations, built once and
// shared by guardedby, lockorder and condcheck; the vocabulary findings
// from the parse are kept for guardedby to report.
func (prog *Program) guardTable() guardTable {
	if prog.guards == nil {
		prog.guards = make(guardTable)
		r := &reporter{analyzer: "guardedby"}
		for _, p := range prog.Pkgs {
			collectGuardedBy(p, prog.guards, r)
		}
		prog.guardFindings = r.out
	}
	return prog.guards
}

func runGuardedBy(prog *Program) []Finding {
	table := prog.guardTable()
	r := &reporter{analyzer: "guardedby", out: append([]Finding(nil), prog.guardFindings...)}
	if len(table) == 0 {
		return r.out
	}

	// Entry obligations of *Locked functions, to a fixed point: a *Locked
	// function inherits the unsatisfied obligations of the *Locked
	// functions it calls, so obligations flow up arbitrary chains. The
	// fixed point needs only the keys, which grow monotonically; chains
	// refine within a stable key set.
	needs := make(map[*FuncInfo]map[string]*guardedAccess)
	summarize(prog, needs, func(fi *FuncInfo) map[string]*guardedAccess {
		return walkGuardedAccesses(prog, fi, table, needs, nil)
	}, sameKeys[*guardedAccess])

	// Reporting pass against the stable obligation sets.
	for _, fi := range prog.funcs() {
		walkGuardedAccesses(prog, fi, table, needs, r)
	}
	return r.out
}

// walkGuardedAccesses replays fi's body through the lock walker and
// classifies every annotated-field access and every call to a function
// with entry obligations. It returns fi's own obligations (nil unless fi
// is *Locked) and reports to r the accesses nothing can justify.
func walkGuardedAccesses(prog *Program, fi *FuncInfo, table guardTable, needs map[*FuncInfo]map[string]*guardedAccess, r *reporter) map[string]*guardedAccess {
	p := fi.Pkg
	isLocked := strings.HasSuffix(fi.Name, "Locked")
	fresh := freshLocals(p, fi.Decl)
	var localNeeds map[string]*guardedAccess

	need := func(acc *guardedAccess) {
		if localNeeds == nil {
			localNeeds = make(map[string]*guardedAccess)
		}
		if _, ok := localNeeds[acc.key]; !ok {
			localNeeds[acc.key] = acc
		}
	}

	w := newLockWalker(prog, fi, nil)
	w.onSelector = func(sel *ast.SelectorExpr, st *lockState) {
		spec := lookupGuardedField(p, sel, table)
		if spec == nil {
			return
		}
		if mode, held := st.held[spec.key]; held {
			if mode != lockEntry {
				return
			}
			// Held only by the *Locked declaration: an entry obligation
			// every caller must satisfy.
			need(&guardedAccess{key: spec.key, spec: spec, pos: sel.Sel.Pos()})
			return
		}
		if root := rootIdent(sel.X); root != nil && fresh[p.Info.Uses[root]] {
			return // locally constructed, unshared object
		}
		if st.released[spec.key] {
			r.at(p, sel.Sel.Pos(), "%s accesses %s.%s (//boltvet:guardedby %s) after releasing %s (unlock-then-relock window); re-acquire it first",
				fi.Name, spec.structName, spec.fieldName, spec.guard, spec.guard)
			return
		}
		if isLocked {
			need(&guardedAccess{key: spec.key, spec: spec, pos: sel.Sel.Pos()})
			return
		}
		r.at(p, sel.Sel.Pos(), "%s accesses %s.%s (//boltvet:guardedby %s) without holding %s; acquire it or rename the path *Locked",
			fi.Name, spec.structName, spec.fieldName, spec.guard, spec.guard)
	}
	w.onCall = func(cs *CallSite, st *lockState, deferred bool) {
		if deferred {
			return // execution-time state unknowable
		}
		for _, target := range cs.Targets {
			callee := prog.Funcs[target]
			if callee == nil || callee == fi {
				continue
			}
			cn := needs[callee]
			if len(cn) == 0 {
				continue
			}
			for _, key := range sortedKeys(cn) {
				acc := cn[key]
				mode, held := st.held[key]
				if held && mode != lockEntry {
					continue
				}
				chain := append([]string{callee.Name}, acc.chain...)
				if (held && mode == lockEntry) || (isLocked && !st.released[key]) {
					need(&guardedAccess{key: key, spec: acc.spec, chain: chain, pos: cs.Call.Pos()})
					continue
				}
				r.at(p, cs.Call.Pos(), "%s calls %s, which accesses %s.%s (//boltvet:guardedby %s), without holding %s",
					fi.Name, strings.Join(chain, " -> "), acc.spec.structName, acc.spec.fieldName, acc.spec.guard, acc.spec.guard)
			}
		}
	}
	w.walkFrom(prog.entryState(fi))
	return localNeeds
}

// entryState builds a function's initial lock state, the one *Locked
// entry seed every lock-state analyzer walks from: a *Locked method starts
// with every annotation-referenced mutex of its receiver struct held at
// lockEntry — the caller's declared hold. guardedby turns accesses under
// it into caller obligations, lockorder reports re-acquiring it as a
// self-deadlock, and condcheck accepts it as the Wait's mutex.
func (prog *Program) entryState(fi *FuncInfo) *lockState {
	st := newLockState()
	if !strings.HasSuffix(fi.Name, "Locked") || fi.Decl.Recv == nil {
		return st
	}
	owner := qualify(fi.Pkg.Types, receiverTypeName(fi.Decl))
	for _, spec := range prog.guardTable() {
		if spec.owner == owner {
			st.held[spec.key] = lockEntry
		}
	}
	return st
}

// lookupGuardedField resolves sel to a mutex-annotated field's spec, or
// nil.
func lookupGuardedField(p *Package, sel *ast.SelectorExpr, table guardTable) *guardSpec {
	return table[fieldKeyOf(p, sel)]
}

// rootIdent unwraps a selector chain's base to its root identifier
// (d.vs.current -> d), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// freshLocals returns the objects of local variables bound (with :=) to a
// value the function constructs itself — a composite literal, its
// address, or new(T). Such an object is unshared until published, so
// constructors may initialize its guarded fields lock-free.
func freshLocals(p *Package, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	inspectSkipFuncLit(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i := range as.Rhs {
			if !isFreshExpr(p, as.Rhs[i]) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					fresh[obj] = true
				}
			}
		}
	})
	return fresh
}

func isFreshExpr(p *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// collectGuardedBy parses the annotations of every struct in p into
// table, reporting vocabulary errors: unknown guard names, none without a
// reason, atomic on a type not from sync/atomic, and (once a struct opts
// in) unannotated mutable fields.
func collectGuardedBy(p *Package, table guardTable, r *reporter) {
	for _, file := range p.Files {
		if isTestFile(p, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			owner := qualify(p.Types, ts.Name.Name)
			mutexFields := make(map[string]bool)
			annotated := false
			for _, field := range st.Fields.List {
				if isSyncType(typeOf(p, field.Type), "Mutex", "RWMutex") {
					for _, name := range field.Names {
						mutexFields[name.Name] = true
					}
				}
				if d := p.inGroups("guardedby", field.Doc, field.Comment); d != nil {
					annotated = true
					if len(field.Names) == 0 {
						r.at(p, field.Pos(), "//boltvet:guardedby on an embedded field of %s is not supported; name the field", ts.Name.Name)
					}
				}
			}
			for _, field := range st.Fields.List {
				d := p.inGroups("guardedby", field.Doc, field.Comment)
				for _, name := range field.Names {
					if d == nil {
						if annotated && !isSyncType(typeOf(p, field.Type), "Mutex", "RWMutex", "WaitGroup", "Cond", "Once") {
							r.at(p, name.Pos(), "struct %s has //boltvet:guardedby annotations but field %q has none; annotate it (mutex name, atomic, or none -- <why>)",
								ts.Name.Name, name.Name)
						}
						continue
					}
					guard := ""
					if len(d.args) > 0 {
						guard = d.args[0]
					}
					switch guard {
					case "none":
						if d.reason == "" {
							r.at(p, name.Pos(), "//boltvet:guardedby none on %s.%s requires a reason; write `//boltvet:guardedby none -- <why>`",
								ts.Name.Name, name.Name)
						}
					case "atomic":
						if t := typeOf(p, field.Type); !isAtomicType(t) {
							r.at(p, name.Pos(), "//boltvet:guardedby atomic on %s.%s, whose type %s is not from sync/atomic; use a sync/atomic type, which go vet's copylocks polices",
								ts.Name.Name, name.Name, typeLabel(t))
						}
					default:
						if !mutexFields[guard] {
							r.at(p, name.Pos(), "//boltvet:guardedby on %s.%s names %q, which is not a sync.Mutex/RWMutex field of %s",
								ts.Name.Name, name.Name, guard, ts.Name.Name)
							continue
						}
						table[owner+"."+name.Name] = &guardSpec{guard: guard, key: owner + "." + guard, owner: owner, structName: ts.Name.Name, fieldName: name.Name}
					}
				}
			}
			return true
		})
	}
}

// isAtomicType reports whether t, or its element type when t is an array,
// is a sync/atomic type.
func isAtomicType(t types.Type) bool {
	if a, ok := types.Unalias(t).(*types.Array); ok {
		t = a.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}
