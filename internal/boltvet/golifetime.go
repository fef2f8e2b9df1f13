package boltvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// GoLifetime ties every `go` statement to a declared or inferred
// lifecycle and proves the spawned goroutine is joined. The engine's
// shutdown correctness rests on Close draining every background
// goroutine (the job runner's lane workers, the write-queue leader)
// before tearing shared state down; the last three shutdown
// races all came from a goroutine outliving the state it touched.
//
// A spawn site declares its lifecycle with an annotation on the spawn
// line or the line above:
//
//	//boltvet:goroutine <tracker> -- <why>
//	go db.runLane(l, w, j)
//
// where <tracker> names the field (of the spawned method's receiver, or
// the spawning function's receiver) that tracks the goroutine's
// liveness: a bool flag, an integer worker counter, or a
// sync.WaitGroup. The analyzer then proves two things through the call
// graph:
//
//   - clear: some path from the spawned function clears the tracker
//     (sets the bool false, decrements the counter, calls Done on the
//     WaitGroup). A goroutine that never clears its tracker deadlocks
//     the drain; the finding carries the checked call chain as the
//     witness.
//   - join: somewhere in the program the tracker is awaited — a loop
//     whose condition mentions the field and whose body Waits on a
//     sync.Cond (the engine's drain idiom), or a Wait() on the
//     WaitGroup. A tracker nobody awaits is a leak dressed as
//     bookkeeping.
//
// Unannotated spawns are accepted only when the lifecycle is inferable
// from WaitGroup discipline: the spawned function literal calls Done on
// a WaitGroup (field or local) that is provably Waited on — a local
// WaitGroup must be Waited within the spawning function (closures
// count), a field WaitGroup anywhere in the program. Everything else is
// reported: every goroutine must have a declared owner.
//
// Soundness limits (DESIGN.md §6a): clears are matched lexically (a
// clear on any instance of the struct type counts, RacerD's ownership
// trade); the clear path is existential, not universal — a panic
// between spawn and clear escapes the analysis; calls the graph cannot
// resolve clear nothing. The engine's runtime twin is the TestCloseVs*
// table in internal/core, which races Close against every lane of its
// one spawn site under -race and requires the goroutine count back to
// baseline.
var GoLifetime = &Analyzer{
	Name:       "golifetime",
	Doc:        "ties every go statement to a declared/inferred lifecycle and proves the goroutine is joined",
	RunProgram: runGoLifetime,
}

// trackerKind classifies what a tracker name resolved to.
type trackerKind int

const (
	trackBool    trackerKind = iota + 1 // struct bool flag, cleared by `= false`
	trackInt                            // struct worker counter, cleared by -- or -=
	trackWG                             // struct sync.WaitGroup, cleared by Done
	trackLocalWG                        // local sync.WaitGroup, cleared by Done
)

// trackerRef is a resolved tracker: a field key for struct trackers or
// the variable object for local WaitGroups.
type trackerRef struct {
	kind       trackerKind
	key        string // "pkgpath.Struct.field" for field trackers
	obj        types.Object
	structName string
	fieldName  string
}

func (tr *trackerRef) label() string {
	if tr.kind == trackLocalWG {
		return tr.fieldName
	}
	return tr.structName + "." + tr.fieldName
}

// lifetimeState caches the facts the spawn checks share.
type lifetimeState struct {
	prog *Program
	// specs maps filename -> line -> //boltvet:goroutine directive.
	specs map[string]map[int]*directive
	// clears is the may-clear summary: the tracker field keys a function,
	// or anything it calls (inside function literals too: a deferred
	// closure's clear still runs), may clear.
	clears map[*FuncInfo]map[string]bool
	// waitedFields holds field keys some loop condition mentions while
	// its body Waits on a sync.Cond (the drain idiom).
	waitedFields map[string]bool
	// wgWaitFields holds field keys of WaitGroups with a program-wide
	// Wait call.
	wgWaitFields map[string]bool
}

func runGoLifetime(prog *Program) []Finding {
	ls := &lifetimeState{
		prog:         prog,
		specs:        make(map[string]map[int]*directive),
		waitedFields: make(map[string]bool),
		wgWaitFields: make(map[string]bool),
	}
	for _, p := range prog.Pkgs {
		for _, d := range p.directives().list {
			if d.verb != "goroutine" {
				continue
			}
			if ls.specs[d.file] == nil {
				ls.specs[d.file] = make(map[int]*directive)
			}
			ls.specs[d.file][d.line] = d
		}
	}
	direct := make(map[*FuncInfo]map[string]bool)
	for _, fi := range prog.funcs() {
		ls.collectAwaits(fi)
		direct[fi] = clearsIn(fi.Pkg, fi.Decl.Body)
	}
	ls.clears = maySets(prog, direct, true)
	r := &reporter{analyzer: "golifetime"}
	for _, fi := range prog.funcs() {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				ls.checkSpawn(fi, g, r)
			}
			return true
		})
	}
	return r.out
}

// collectAwaits scans fi for the two join idioms: drain loops (condition
// mentions a field, body Waits on a sync.Cond) and WaitGroup field Waits.
func (ls *lifetimeState) collectAwaits(fi *FuncInfo) {
	p := fi.Pkg
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ForStmt:
			if v.Cond == nil || !bodyWaitsOnCond(p, v.Body) {
				return true
			}
			ast.Inspect(v.Cond, func(cn ast.Node) bool {
				if sel, ok := cn.(*ast.SelectorExpr); ok {
					if key := fieldKeyOf(p, sel); key != "" {
						ls.waitedFields[key] = true
					}
				}
				return true
			})
		case *ast.CallExpr:
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Wait" {
				return true
			}
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && isSyncType(typeOf(p, sel.X), "WaitGroup") {
				if key := fieldKeyOf(p, inner); key != "" {
					ls.wgWaitFields[key] = true
				}
			}
		}
		return true
	})
}

// bodyWaitsOnCond reports whether body contains a sync.Cond Wait call.
func bodyWaitsOnCond(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && sel.Sel.Name == "Wait" && isSyncType(typeOf(p, sel.X), "Cond") {
			found = true
		}
		return !found
	})
	return found
}

// specAt returns the annotation on the spawn's line or the line above.
func (ls *lifetimeState) specAt(p *Package, pos token.Pos) *directive {
	position := p.Fset.Position(pos)
	byLine := ls.specs[position.Filename]
	if s := byLine[position.Line]; s != nil {
		return s
	}
	return byLine[position.Line-1]
}

func (ls *lifetimeState) checkSpawn(fi *FuncInfo, g *ast.GoStmt, r *reporter) {
	p := fi.Pkg
	spec := ls.specAt(p, g.Pos())
	if spec == nil {
		ls.checkInferred(fi, g, r)
		return
	}
	tracker := ""
	if len(spec.args) > 0 {
		tracker = spec.args[0]
	}
	if spec.reason == "" {
		r.at(p, g.Pos(), "//boltvet:goroutine %s requires a reason; write `//boltvet:goroutine %s -- <why>`",
			tracker, tracker)
		return
	}
	tr := resolveTracker(p, fi, g, tracker)
	if tr == nil {
		r.at(p, g.Pos(), "//boltvet:goroutine names %q, which is not a bool, integer, or sync.WaitGroup tracker reachable from this spawn site",
			tracker)
		return
	}
	// Clear: some path from the spawned function must clear the tracker.
	if !ls.spawnClears(fi, g.Call, tr) {
		suffix := ""
		if chain := ls.witness(fi, g.Call); len(chain) > 0 {
			suffix = " (checked " + strings.Join(chain, " -> ") + ")"
		}
		r.at(p, g.Pos(), "goroutine tracked by %s never clears it: no path from the spawned function %s%s; the drain loop waiting on it will hang",
			tr.label(), clearVerb(tr.kind), suffix)
	}
	// Join: the tracker must be awaited somewhere.
	if !ls.awaited(fi, tr) {
		r.at(p, g.Pos(), "goroutine tracker %s is never awaited: no loop condition waits on it and no Wait() joins it; the goroutine can outlive Close",
			tr.label())
	}
}

func clearVerb(k trackerKind) string {
	switch k {
	case trackBool:
		return "sets it false"
	case trackInt:
		return "decrements it"
	default:
		return "calls Done on it"
	}
}

// checkInferred handles unannotated spawns: only the WaitGroup idiom
// (spawned literal calls Done on a Waited WaitGroup) passes.
func (ls *lifetimeState) checkInferred(fi *FuncInfo, g *ast.GoStmt, r *reporter) {
	p := fi.Pkg
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		r.at(p, g.Pos(), "go statement has no declared lifecycle; annotate it with `//boltvet:goroutine <tracker> -- <why>` naming the bool/counter/WaitGroup that tracks it")
		return
	}
	// Find a wg.Done() in the spawned literal's body (defer counts).
	var doneKey string       // field WaitGroup
	var doneObj types.Object // local WaitGroup
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || doneKey != "" || doneObj != nil {
			return doneKey == "" && doneObj == nil
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || !isSyncType(typeOf(p, sel.X), "WaitGroup") {
			return true
		}
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			doneKey = fieldKeyOf(p, recv)
		case *ast.Ident:
			doneObj = p.Info.Uses[recv]
		}
		return true
	})
	switch {
	case doneKey != "":
		if !ls.wgWaitFields[doneKey] {
			r.at(p, g.Pos(), "goroutine calls Done on %s but nothing in the program Waits on it; the WaitGroup joins nobody",
				shortLockKey(doneKey))
		}
	case doneObj != nil:
		if !callsOn(p, fi.Decl.Body, "Wait", doneObj) {
			r.at(p, g.Pos(), "goroutine calls Done on WaitGroup %q but the spawning function never Waits on it; the goroutine can outlive its spawner",
				doneObj.Name())
		}
	default:
		r.at(p, g.Pos(), "go statement has no declared lifecycle; annotate it with `//boltvet:goroutine <tracker> -- <why>` or adopt the WaitGroup Done/Wait discipline")
	}
}

// callsOn reports whether n (closures included — a stop function
// returned by the spawner is the common shape) calls method on the given
// local variable.
func callsOn(p *Package, n ast.Node, method string, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == method {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// resolveTracker resolves an annotation's tracker name against, in
// order: the spawned method's receiver struct, the spawning function's
// receiver struct, and the spawning function's local WaitGroups.
func resolveTracker(p *Package, fi *FuncInfo, g *ast.GoStmt, name string) *trackerRef {
	if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
		if tr := fieldTracker(typeOf(p, sel.X), name); tr != nil {
			return tr
		}
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		if tr := fieldTracker(typeOf(p, fi.Decl.Recv.List[0].Type), name); tr != nil {
			return tr
		}
	}
	var tr *trackerRef
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name || tr != nil {
			return tr == nil
		}
		if obj := p.Info.Defs[id]; obj != nil && isSyncType(obj.Type(), "WaitGroup") {
			tr = &trackerRef{kind: trackLocalWG, obj: obj, fieldName: name}
		}
		return true
	})
	return tr
}

// fieldTracker resolves name as a trackable field of t's named struct.
func fieldTracker(t types.Type, name string) *trackerRef {
	named := namedOf(t)
	if named == nil {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != name {
			continue
		}
		kind, ok := trackerKindOf(f.Type())
		if !ok {
			return nil
		}
		return &trackerRef{kind: kind, key: fieldKey(t, name), structName: named.Obj().Name(), fieldName: name}
	}
	return nil
}

func trackerKindOf(t types.Type) (trackerKind, bool) {
	if isSyncType(t, "WaitGroup") {
		return trackWG, true
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		if b.Info()&types.IsBoolean != 0 {
			return trackBool, true
		}
		if b.Info()&types.IsInteger != 0 {
			return trackInt, true
		}
	}
	return 0, false
}

// spawned returns the program functions a go statement's call starts: the
// spawned function, or every callee inside a spawned literal.
func (ls *lifetimeState) spawned(fi *FuncInfo, call *ast.CallExpr) []*FuncInfo {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		if fn := funcObjOf(fi.Pkg, ast.Unparen(call.Fun)); fn != nil && ls.prog.Funcs[funcKey(fn)] != nil {
			return []*FuncInfo{ls.prog.Funcs[funcKey(fn)]}
		}
		return nil
	}
	var out []*FuncInfo
	for _, cs := range fi.LitCalls {
		if cs.Call.Pos() >= lit.Pos() && cs.Call.End() <= lit.End() {
			for _, t := range cs.Targets {
				if callee := ls.prog.Funcs[t]; callee != nil {
					out = append(out, callee)
				}
			}
		}
	}
	return out
}

// spawnClears reports whether the spawned call may clear tr: a spawned
// literal's own body, or the may-clear summary of anything it calls.
func (ls *lifetimeState) spawnClears(fi *FuncInfo, call *ast.CallExpr, tr *trackerRef) bool {
	for _, callee := range ls.spawned(fi, call) {
		if ls.clears[callee][tr.key] {
			return true
		}
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	if tr.kind == trackLocalWG {
		return callsOn(fi.Pkg, lit.Body, "Done", tr.obj)
	}
	return clearsIn(fi.Pkg, lit.Body)[tr.key]
}

// witness renders a checked call chain from the spawned function for a
// not-found report: each step follows the first callee not yet on it.
func (ls *lifetimeState) witness(fi *FuncInfo, call *ast.CallExpr) []string {
	var chain []string
	seen := make(map[*FuncInfo]bool)
	next := ls.spawned(fi, call)
	for len(next) > 0 {
		cur := next[0]
		seen[cur] = true
		chain = append(chain, cur.Name)
		next = nil
		for _, cs := range append(slices.Clip(cur.Calls), cur.LitCalls...) {
			for _, t := range cs.Targets {
				if callee := ls.prog.Funcs[t]; callee != nil && !seen[callee] && next == nil {
					next = []*FuncInfo{callee}
				}
			}
		}
	}
	return chain
}

// clearsIn returns the tracker field keys n clears: bool fields assigned
// false, integer fields decremented, WaitGroup fields Done'd. Function
// literal bodies are included — a clear inside a deferred closure still
// runs.
func clearsIn(p *Package, n ast.Node) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(n, func(nn ast.Node) bool {
		switch v := nn.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				key := fieldKeyOf(p, sel)
				if key == "" {
					continue
				}
				switch v.Tok {
				case token.SUB_ASSIGN:
					out[key] = true
				case token.ASSIGN:
					if len(v.Lhs) == len(v.Rhs) {
						if id, ok := ast.Unparen(v.Rhs[i]).(*ast.Ident); ok && id.Name == "false" {
							out[key] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if v.Tok != token.DEC {
				return true
			}
			if sel, ok := ast.Unparen(v.X).(*ast.SelectorExpr); ok {
				if key := fieldKeyOf(p, sel); key != "" {
					out[key] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" || !isSyncType(typeOf(p, sel.X), "WaitGroup") {
				return true
			}
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if key := fieldKeyOf(p, inner); key != "" {
					out[key] = true
				}
			}
		}
		return true
	})
	return out
}

// awaited reports whether the tracker has a join point.
func (ls *lifetimeState) awaited(fi *FuncInfo, tr *trackerRef) bool {
	switch tr.kind {
	case trackWG:
		return ls.wgWaitFields[tr.key]
	case trackLocalWG:
		return callsOn(fi.Pkg, fi.Decl.Body, "Wait", tr.obj)
	default:
		return ls.waitedFields[tr.key]
	}
}
