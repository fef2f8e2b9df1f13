package boltvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// GuardedBy verifies the field-guard vocabulary — the one way a field
// declares what protects it — and checks every access site against the
// summary-backed lock-set analysis:
//
//	//boltvet:guardedby mu            — accessed only with mu (a
//	                                    sync.Mutex/RWMutex field of the
//	                                    same struct) held
//	//boltvet:guardedby atomic        — accessed only through sync/atomic
//	                                    (enforced by atomicfield)
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

// guardedbyRe matches one annotation line in a field comment.
var guardedbyRe = regexp.MustCompile(`^//\s*boltvet:guardedby\s+(\w+)\s*(?:--\s*(\S.*))?$`)

// guardSpec is one field's parsed annotation.
type guardSpec struct {
	guard  string // mutex field name, "atomic", or "none"
	reason string
	pos    token.Pos
	// For mutex guards, the resolved lock key ("pkgpath.Struct.mu") and
	// the diagnostic labels.
	key        string
	structName string
	fieldName  string
}

// guardTable indexes annotations by "pkgpath.Struct.field".
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
		for _, p := range prog.Pkgs {
			collectGuardedBy(p, prog.guards, &prog.guardFindings)
		}
	}
	return prog.guards
}

func runGuardedBy(prog *Program) []Finding {
	table := prog.guardTable()
	out := append([]Finding(nil), prog.guardFindings...)
	if len(table) == 0 {
		return out
	}

	// Entry obligations of *Locked functions, to a fixed point: a *Locked
	// function inherits the unsatisfied obligations of the *Locked
	// functions it calls, so obligations flow up arbitrary chains.
	needs := make(map[*FuncInfo]map[string]*guardedAccess)
	funcs := prog.sortedFuncs()
	for pass := 0; pass < maxSummaryPasses; pass++ {
		changed := false
		for _, fi := range funcs {
			if fi.Decl == nil || funcInTestFile(fi) {
				continue
			}
			n, _ := walkGuardedAccesses(prog, fi, table, needs)
			if !needKeysEqual(needs[fi], n) {
				needs[fi] = n
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Reporting pass against the stable obligation sets.
	for _, fi := range funcs {
		if fi.Decl == nil || funcInTestFile(fi) {
			continue
		}
		_, findings := walkGuardedAccesses(prog, fi, table, needs)
		out = append(out, findings...)
	}
	return out
}

// walkGuardedAccesses replays fi's body through the lock walker and
// classifies every annotated-field access and every call to a function
// with entry obligations. It returns fi's own obligations (nil unless fi
// is *Locked) and the findings for accesses nothing can justify.
func walkGuardedAccesses(prog *Program, fi *FuncInfo, table guardTable, needs map[*FuncInfo]map[string]*guardedAccess) (map[string]*guardedAccess, []Finding) {
	p := fi.Pkg
	isLocked := strings.HasSuffix(fi.Name, "Locked")
	fresh := freshLocals(p, fi.Decl)
	var localNeeds map[string]*guardedAccess
	var out []Finding

	need := func(acc *guardedAccess) {
		if localNeeds == nil {
			localNeeds = make(map[string]*guardedAccess)
		}
		if _, ok := localNeeds[acc.key]; !ok {
			localNeeds[acc.key] = acc
		}
	}
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:      p.Fset.Position(pos),
			Analyzer: "guardedby",
			Message:  fmt.Sprintf(format, args...),
		})
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
			report(sel.Sel.Pos(), "%s accesses %s.%s (//boltvet:guardedby %s) after releasing %s (unlock-then-relock window); re-acquire it first",
				fi.Name, spec.structName, spec.fieldName, spec.guard, spec.guard)
			return
		}
		if isLocked {
			need(&guardedAccess{key: spec.key, spec: spec, pos: sel.Sel.Pos()})
			return
		}
		report(sel.Sel.Pos(), "%s accesses %s.%s (//boltvet:guardedby %s) without holding %s; acquire it or rename the path *Locked",
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
				report(cs.Call.Pos(), "%s calls %s, which accesses %s.%s (//boltvet:guardedby %s), without holding %s",
					fi.Name, strings.Join(chain, " -> "), acc.spec.structName, acc.spec.fieldName, acc.spec.guard, acc.spec.guard)
			}
		}
	}
	w.walkFrom(prog.entryState(fi))
	return localNeeds, out
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
	recvType := receiverTypeName(fi.Decl)
	pkgPath := ""
	if fi.Pkg.Types != nil {
		pkgPath = fi.Pkg.Types.Path()
	}
	prefix := pkgPath + "." + recvType + "."
	for _, spec := range prog.guardTable() {
		if spec.key != "" && spec.structName == recvType && strings.HasPrefix(spec.key, prefix) {
			st.held[spec.key] = lockEntry
		}
	}
	return st
}

// needKeysEqual compares obligation sets by key (chains refine within a
// stable key set; the fixed point only needs the keys, which grow
// monotonically).
func needKeysEqual(a, b map[string]*guardedAccess) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// lookupGuardedField resolves sel to a mutex-annotated field's spec, or
// nil (atomic specs are atomicfield's; none and unannotated fields are
// not checked).
func lookupGuardedField(p *Package, sel *ast.SelectorExpr, table guardTable) *guardSpec {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fieldVar, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	named := namedOf(typeOf(p, sel.X))
	if named == nil {
		return nil
	}
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	spec := table[pkg+"."+named.Obj().Name()+"."+fieldVar.Name()]
	if spec == nil || spec.guard == "atomic" || spec.guard == "none" {
		return nil
	}
	return spec
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
// reason, and (once a struct opts in) unannotated mutable fields.
func collectGuardedBy(p *Package, table guardTable, out *[]Finding) {
	path := ""
	if p.Types != nil {
		path = p.Types.Path()
	}
	report := func(pos token.Pos, format string, args ...any) {
		*out = append(*out, Finding{
			Pos:      p.Fset.Position(pos),
			Analyzer: "guardedby",
			Message:  fmt.Sprintf(format, args...),
		})
	}
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
			type fieldInfo struct {
				name    string
				pos     token.Pos
				typeStr string
				spec    *guardSpec
			}
			var fields []fieldInfo
			mutexFields := make(map[string]bool)
			annotated := 0
			for _, field := range st.Fields.List {
				typeStr := typeExprString(field.Type)
				if strings.HasSuffix(typeStr, "sync.Mutex") || strings.HasSuffix(typeStr, "sync.RWMutex") {
					for _, name := range field.Names {
						mutexFields[name.Name] = true
					}
				}
				spec := parseGuardedByComment(field)
				if spec != nil {
					annotated++
				}
				for _, name := range field.Names {
					fields = append(fields, fieldInfo{name: name.Name, pos: name.Pos(), typeStr: typeStr, spec: spec})
				}
				if spec != nil && len(field.Names) == 0 {
					report(field.Pos(), "//boltvet:guardedby on an embedded field of %s is not supported; name the field", ts.Name.Name)
				}
			}
			for _, f := range fields {
				if f.spec == nil {
					if annotated > 0 && !guardExemptType(f.typeStr) {
						report(f.pos, "struct %s has //boltvet:guardedby annotations but field %q has none; annotate it (mutex name, atomic, or none -- <why>)",
							ts.Name.Name, f.name)
					}
					continue
				}
				spec := *f.spec // fields sharing one decl get their own copy
				spec.structName = ts.Name.Name
				spec.fieldName = f.name
				switch spec.guard {
				case "none":
					if spec.reason == "" {
						report(f.pos, "//boltvet:guardedby none on %s.%s requires a reason; write `//boltvet:guardedby none -- <why>`",
							ts.Name.Name, f.name)
						continue
					}
				case "atomic":
				default:
					if !mutexFields[spec.guard] {
						report(f.pos, "//boltvet:guardedby on %s.%s names %q, which is not a sync.Mutex/RWMutex field of %s",
							ts.Name.Name, f.name, spec.guard, ts.Name.Name)
						continue
					}
					spec.key = path + "." + ts.Name.Name + "." + spec.guard
				}
				table[path+"."+ts.Name.Name+"."+f.name] = &spec
			}
			return true
		})
	}
}

// parseGuardedByComment extracts the (last) annotation line from a
// field's doc or trailing comment.
func parseGuardedByComment(f *ast.Field) *guardSpec {
	var spec *guardSpec
	scan := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			if m := guardedbyRe.FindStringSubmatch(c.Text); m != nil {
				spec = &guardSpec{guard: m[1], reason: strings.TrimSpace(m[2]), pos: c.Pos()}
			}
		}
	}
	scan(f.Doc)
	scan(f.Comment)
	return spec
}

// guardExemptType reports types that are guards or synchronization
// primitives themselves and so need no annotation.
func guardExemptType(typeStr string) bool {
	for _, suffix := range []string{"sync.Mutex", "sync.RWMutex", "sync.WaitGroup", "sync.Cond", "sync.Once"} {
		if strings.HasSuffix(typeStr, suffix) {
			return true
		}
	}
	return false
}

// typeExprString renders a field type well enough to recognize mutexes
// and other guards ("sync.Mutex", "*sync.Cond", ...).
func typeExprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return typeExprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + typeExprString(v.X)
	case *ast.ArrayType:
		return "[]" + typeExprString(v.Elt)
	case *ast.MapType:
		return "map[" + typeExprString(v.Key) + "]" + typeExprString(v.Value)
	case *ast.IndexExpr:
		return typeExprString(v.X)
	case *ast.IndexListExpr:
		return typeExprString(v.X)
	}
	return ""
}
