package boltvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program layer the interprocedural analyzers
// (lockorder, errflow, guardedby, ...) run on: a type-aware static
// call graph over every loaded package, with bounded resolution of
// interface calls and method values.
//
// Function identity is a string key ("pkgpath.(Type).Name"), not a
// *types.Func: each directly loaded package is type-checked in its own
// universe while its imports come from the shared source importer, so the
// same function can be represented by distinct objects. Keys unify them.
//
// Resolution is deliberately bounded and unsound in the ways any static
// call graph for Go is: calls through function-typed fields, reflection,
// and interface calls with more than maxInterfaceTargets candidate
// implementations resolve to nothing (the callee is treated as opaque —
// empty summary, no findings missed inside it but none found either).
// DESIGN.md §6a records these limits; the runtime twins (-race tier,
// boltinvariants builds) stay the sound backstop.

// maxInterfaceTargets bounds how many concrete methods one interface call
// may fan out to. Calls past the bound (Close, Next, ... with dozens of
// implementations) are treated as opaque and counted in Stats.
const maxInterfaceTargets = 8

// FuncInfo is one function or method known to the program: its declaration
// (nil for functions only seen through imports) and resolved call sites.
type FuncInfo struct {
	Key  string
	Name string // bare name for witnesses ("flushLocked")
	Pkg  *Package
	Decl *ast.FuncDecl

	// Calls are the resolved static call sites in body order, outside
	// function literals; LitCalls are those inside them, which run at an
	// unknown time (a deferred closure, a spawned goroutine) and so feed
	// only the summaries that ignore order (the may-clear set).
	Calls    []*CallSite
	LitCalls []*CallSite

	parents map[ast.Node]ast.Node // see parentMap
	sites   map[*ast.CallExpr]*CallSite
}

// site returns the resolved call site of call (outside function
// literals), or nil.
func (fi *FuncInfo) site(call *ast.CallExpr) *CallSite {
	if fi.sites == nil {
		fi.sites = make(map[*ast.CallExpr]*CallSite, len(fi.Calls))
		for _, cs := range fi.Calls {
			fi.sites[cs.Call] = cs
		}
	}
	return fi.sites[call]
}

// parentMap returns the parent map of fi's body, built on first use and
// shared by every pass and analyzer.
func (fi *FuncInfo) parentMap() map[ast.Node]ast.Node {
	if fi.parents == nil {
		fi.parents = buildParentMap(fi.Decl.Body)
	}
	return fi.parents
}

// CallSite is one call expression with its resolved callee keys (several
// for interface calls).
type CallSite struct {
	Call    *ast.CallExpr
	Targets []string
}

// GraphStats counts what the resolver could and could not see.
type GraphStats struct {
	Funcs             int
	Edges             int
	InterfaceFanouts  int // interface calls resolved within the bound
	InterfaceOverflow int // interface calls past maxInterfaceTargets (opaque)
	MethodValueBinds  int // v := x.Method bindings resolved to calls
	OpaqueCalls       int // calls with no resolvable static callee
}

// Program is the whole-program view handed to Analyzer.RunProgram.
type Program struct {
	Pkgs  []*Package
	Funcs map[string]*FuncInfo
	Stats GraphStats

	// methodsByName indexes concrete methods for interface resolution.
	methodsByName map[string][]*FuncInfo
	// checked is funcs' cache.
	checked []*FuncInfo

	// The summaries ComputeSummaries iterates to a fixed point.
	locks map[*FuncInfo]lockSummary
	errs  map[*FuncInfo][]string // barrier chains

	// guards is the //boltvet:guardedby table (guardTable builds it on
	// first use); guardFindings are the vocabulary errors found parsing it.
	guards        guardTable
	guardFindings []Finding
}

// Func returns the FuncInfo for key, or nil.
func (prog *Program) Func(key string) *FuncInfo { return prog.Funcs[key] }

// funcKey builds the canonical key of a *types.Func. Receiver pointers are
// stripped so (*DB).Get and DB.Get unify.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return pkg + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		// Interface receiver or unnamed: key by name only under the
		// interface's package so calls at least unify textually.
		return pkg + ".(iface)." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// declKey builds the key for a function declaration in package p.
func declKey(p *Package, fd *ast.FuncDecl) string {
	path := ""
	if p.Types != nil {
		path = p.Types.Path()
	}
	if recv := receiverTypeName(fd); recv != "" {
		return path + ".(" + recv + ")." + fd.Name.Name
	}
	return path + "." + fd.Name.Name
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v
		case *types.Alias:
			t = types.Unalias(v)
		default:
			return nil
		}
	}
}

// BuildProgram constructs the call graph over pkgs.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:          pkgs,
		Funcs:         make(map[string]*FuncInfo),
		methodsByName: make(map[string][]*FuncInfo),
	}
	// Pass 1: register every declared function.
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := declKey(p, fd)
				fi := &FuncInfo{Key: key, Name: fd.Name.Name, Pkg: p, Decl: fd}
				// Test packages shadow: first registration wins so the
				// non-test declaration keeps its body.
				if prog.Funcs[key] == nil {
					prog.Funcs[key] = fi
					prog.Stats.Funcs++
					if fd.Recv != nil {
						prog.methodsByName[fd.Name.Name] = append(prog.methodsByName[fd.Name.Name], fi)
					}
				}
			}
		}
	}
	// Deterministic interface fan-out order.
	for _, fis := range prog.methodsByName {
		sort.Slice(fis, func(i, j int) bool { return fis[i].Key < fis[j].Key })
	}
	// Pass 2: resolve call sites.
	for _, fi := range prog.Funcs {
		prog.resolveCalls(fi)
	}
	return prog
}

// funcs returns, in key order, the functions declared outside test files:
// the set every summary kind is computed over and every analyzer checks.
// Tests are the runtime twins' territory, and no non-test function can
// call into a test file.
func (prog *Program) funcs() []*FuncInfo {
	if prog.checked == nil {
		prog.checked = []*FuncInfo{}
		for _, fi := range prog.Funcs {
			if !strings.HasSuffix(fi.Pkg.Fset.Position(fi.Decl.Pos()).Filename, "_test.go") {
				prog.checked = append(prog.checked, fi)
			}
		}
		sort.Slice(prog.checked, func(i, j int) bool { return prog.checked[i].Key < prog.checked[j].Key })
	}
	return prog.checked
}

// resolveCalls fills fi.Calls and fi.LitCalls with the statically
// resolvable callees of every call expression in fi's body, in source
// order. Method values bound to local variables (v := x.Method; v())
// resolve through a per-function binding map.
func (prog *Program) resolveCalls(fi *FuncInfo) {
	p := fi.Pkg
	// bindings: local variable object -> bound function key.
	bindings := make(map[types.Object]string)
	// First sweep: collect v := x.Method / v := fn bindings.
	inspectSkipFuncLit(fi.Decl.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if fn := funcObjOf(p, as.Rhs[i]); fn != nil {
				bindings[obj] = funcKey(fn)
				prog.Stats.MethodValueBinds++
			}
		}
	})

	record := func(into *[]*CallSite, call *ast.CallExpr) {
		targets := prog.resolveCallee(p, call, bindings)
		if len(targets) == 0 {
			prog.Stats.OpaqueCalls++
			return
		}
		prog.Stats.Edges += len(targets)
		*into = append(*into, &CallSite{Call: call, Targets: targets})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(v.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					record(&fi.LitCalls, call)
				}
				return true
			})
			return false
		case *ast.CallExpr:
			record(&fi.Calls, v)
		}
		return true
	})
}

// funcObjOf returns the *types.Func an expression evaluates to when it is
// a direct function or method value reference, else nil.
func funcObjOf(p *Package, e ast.Expr) *types.Func {
	switch v := e.(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[v].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[v]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		} else if fn, ok := p.Info.Uses[v.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.ParenExpr:
		return funcObjOf(p, v.X)
	}
	return nil
}

// resolveCallee returns the candidate callee keys of call.
func (prog *Program) resolveCallee(p *Package, call *ast.CallExpr, bindings map[types.Object]string) []string {
	fun := ast.Unparen(call.Fun)
	// Calls through a bound method value: v().
	if id, ok := fun.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			if key, ok := bindings[obj]; ok {
				return []string{key}
			}
		}
	}
	fn := funcObjOf(p, fun)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return prog.resolveInterfaceCall(fn, sig)
		}
	}
	return []string{funcKey(fn)}
}

// resolveInterfaceCall fans an interface method call out to the concrete
// methods of the program whose name and non-receiver signature match and
// whose receiver type declares every other method of the interface too —
// the "receiver type set" resolution, bounded by maxInterfaceTargets.
// Signatures are compared as package-qualified strings because the
// candidates may live in different type-check universes.
func (prog *Program) resolveInterfaceCall(fn *types.Func, sig *types.Signature) []string {
	want := signatureShape(sig)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	var out []string
	for _, cand := range prog.methodsByName[fn.Name()] {
		csig := declSignature(cand)
		if csig == nil || signatureShape(csig) != want || !prog.hasMethods(cand, csig, iface) {
			continue
		}
		out = append(out, cand.Key)
		if len(out) > maxInterfaceTargets {
			prog.Stats.InterfaceOverflow++
			return nil
		}
	}
	if len(out) > 0 {
		prog.Stats.InterfaceFanouts++
	}
	return out
}

// hasMethods reports whether cand's receiver type declares every method of
// iface, matched by name and shape. A receiver struct with an embedded
// field is kept unconditionally: promotion may supply a missing method.
func (prog *Program) hasMethods(cand *FuncInfo, csig *types.Signature, iface *types.Interface) bool {
	named := namedOf(csig.Recv().Type())
	if iface == nil || named == nil {
		return true
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Embedded() {
				return true
			}
		}
	}
	recvPrefix := strings.TrimSuffix(cand.Key, cand.Name)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sib := prog.Funcs[recvPrefix+m.Name()]
		if sib == nil {
			return false
		}
		ssig := declSignature(sib)
		if ssig == nil || signatureShape(ssig) != signatureShape(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// declSignature returns the checked signature of a declared function.
func declSignature(fi *FuncInfo) *types.Signature {
	obj := fi.Pkg.Info.Defs[fi.Decl.Name]
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// signatureShape renders a signature without its receiver for structural
// matching across universes.
func signatureShape(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	b.WriteByte(')')
	for i := 0; i < sig.Results().Len(); i++ {
		b.WriteByte(',')
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	return b.String()
}

// inspectSkipFuncLit walks n in source order, visiting every node except
// the bodies of function literals.
func inspectSkipFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockKeyOf identifies the mutex behind expr (the x.mu of x.mu.Lock()):
// "pkgpath.Type.field" for struct fields, "pkgpath.var" for package-level
// mutexes. Identity is type-based, not instance-based: two instances of
// the same struct share a key (documented soundness limit — RacerD's
// ownership abstraction makes the same trade).
func lockKeyOf(p *Package, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	switch v := expr.(type) {
	case *ast.SelectorExpr:
		return fieldKey(typeOf(p, ast.Unparen(v.X)), v.Sel.Name)
	case *ast.Ident:
		obj := p.Info.Uses[v]
		if obj == nil {
			return ""
		}
		if _, isVar := obj.(*types.Var); isVar && obj.Parent() != nil && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return qualify(obj.Pkg(), obj.Name())
		}
	}
	return ""
}

// fieldKeyOf identifies a struct-field selector as "pkgpath.Type.field",
// or "" for anything that is not a field access on a named struct.
func fieldKeyOf(p *Package, sel *ast.SelectorExpr) string {
	if s, ok := p.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
		return ""
	}
	return fieldKey(typeOf(p, sel.X), sel.Sel.Name)
}

// shortLockKey trims the module path prefix for diagnostics.
func shortLockKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// mutexOpOf decodes call as a mutex operation (x.mu.Lock() etc.),
// returning the lock key, whether it acquires, and whether it is a
// read-side op. ok is false for anything else, including calls whose
// receiver is not a sync.Mutex/sync.RWMutex.
func mutexOpOf(p *Package, call *ast.CallExpr) (key string, acquire, read, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		acquire, read = true, false
	case "RLock":
		acquire, read = true, true
	case "Unlock":
		acquire, read = false, false
	case "RUnlock":
		acquire, read = false, true
	default:
		return "", false, false, false
	}
	if !isSyncType(typeOf(p, sel.X), "Mutex", "RWMutex") {
		return "", false, false, false
	}
	key = lockKeyOf(p, sel.X)
	if key == "" {
		return "", false, false, false
	}
	return key, acquire, read, true
}

// posOf renders a token position for witnesses.
func posOf(p *Package, pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", position.Filename, position.Line)
}
