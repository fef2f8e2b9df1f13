package boltvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
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
// resolve end the search. The engine's runtime twin is the TestCloseVs*
// table in internal/core, which races Close against every lane of its
// one spawn site under -race and requires the goroutine count back to
// baseline.
var GoLifetime = &Analyzer{
	Name:       "golifetime",
	Doc:        "ties every go statement to a declared/inferred lifecycle and proves the goroutine is joined",
	RunProgram: runGoLifetime,
}

// goroutineRe matches the spawn-site annotation.
var goroutineRe = regexp.MustCompile(`^//\s*boltvet:goroutine\s+(\w+)\s*(?:--\s*(\S.*))?$`)

// goroutineSpec is one parsed //boltvet:goroutine annotation.
type goroutineSpec struct {
	tracker string
	reason  string
	pos     token.Pos
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

// lifetimeState caches the per-function facts the spawn checks share.
type lifetimeState struct {
	prog *Program
	// annots maps filename -> line -> annotation.
	annots map[string]map[int]*goroutineSpec
	// clears maps function key -> tracker keys the body clears.
	clears map[string]map[string]bool
	// callees maps function key -> resolved callee keys, including calls
	// inside function literals (unlike FuncInfo.Calls, which skips them —
	// a spawned literal's body is exactly what we must see through).
	callees map[string][]string
	// waitedFields holds field keys some loop condition mentions while
	// its body Waits on a sync.Cond (the drain idiom).
	waitedFields map[string]bool
	// wgWaitFields holds field keys of WaitGroups with a program-wide
	// Wait call.
	wgWaitFields map[string]bool
}

// maxLifetimeDepth bounds the clear-path search through the call graph.
const maxLifetimeDepth = 8

func runGoLifetime(prog *Program) []Finding {
	ls := &lifetimeState{
		prog:         prog,
		annots:       make(map[string]map[int]*goroutineSpec),
		clears:       make(map[string]map[string]bool),
		callees:      make(map[string][]string),
		waitedFields: make(map[string]bool),
		wgWaitFields: make(map[string]bool),
	}
	ls.collectAnnotations()
	ls.collectAwaits()
	var out []Finding
	for _, fi := range prog.sortedFuncs() {
		if fi.Decl == nil || funcInTestFile(fi) {
			continue
		}
		ls.checkFunc(fi, &out)
	}
	return out
}

func (ls *lifetimeState) collectAnnotations() {
	for _, p := range ls.prog.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := goroutineRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					byLine := ls.annots[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]*goroutineSpec)
						ls.annots[pos.Filename] = byLine
					}
					byLine[pos.Line] = &goroutineSpec{
						tracker: m[1],
						reason:  strings.TrimSpace(m[2]),
						pos:     c.Pos(),
					}
				}
			}
		}
	}
}

// collectAwaits scans every non-test function once for the two join
// idioms: drain loops (condition mentions a field, body Waits on a
// sync.Cond) and WaitGroup field Waits.
func (ls *lifetimeState) collectAwaits() {
	for _, fi := range ls.prog.sortedFuncs() {
		if fi.Decl == nil || funcInTestFile(fi) {
			continue
		}
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
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && isWaitGroupType(typeOf(p, sel.X)) {
					if key := fieldKeyOf(p, inner); key != "" {
						ls.wgWaitFields[key] = true
					}
				}
			}
			return true
		})
	}
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
		if ok && sel.Sel.Name == "Wait" && isCondType(typeOf(p, sel.X)) {
			found = true
		}
		return !found
	})
	return found
}

func (ls *lifetimeState) checkFunc(fi *FuncInfo, out *[]Finding) {
	p := fi.Pkg
	report := func(pos token.Pos, format string, args ...any) {
		*out = append(*out, Finding{
			Pos:      p.Fset.Position(pos),
			Analyzer: "golifetime",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		ls.checkSpawn(fi, g, report)
		return true
	})
}

// specAt returns the annotation on the spawn's line or the line above.
func (ls *lifetimeState) specAt(p *Package, pos token.Pos) *goroutineSpec {
	position := p.Fset.Position(pos)
	byLine := ls.annots[position.Filename]
	if byLine == nil {
		return nil
	}
	if s := byLine[position.Line]; s != nil {
		return s
	}
	return byLine[position.Line-1]
}

func (ls *lifetimeState) checkSpawn(fi *FuncInfo, g *ast.GoStmt, report func(token.Pos, string, ...any)) {
	p := fi.Pkg
	spec := ls.specAt(p, g.Pos())
	if spec == nil {
		ls.checkInferred(fi, g, report)
		return
	}
	if spec.reason == "" {
		report(g.Pos(), "//boltvet:goroutine %s requires a reason; write `//boltvet:goroutine %s -- <why>`",
			spec.tracker, spec.tracker)
		return
	}
	tr := resolveTracker(p, fi, g, spec.tracker)
	if tr == nil {
		report(g.Pos(), "//boltvet:goroutine names %q, which is not a bool, integer, or sync.WaitGroup tracker reachable from this spawn site",
			spec.tracker)
		return
	}
	// Clear: some path from the spawned function must clear the tracker.
	if chain, found := ls.findClear(p, g.Call, tr); !found {
		suffix := ""
		if len(chain) > 0 {
			suffix = " (checked " + strings.Join(chain, " -> ") + ")"
		}
		report(g.Pos(), "goroutine tracked by %s never clears it: no path from the spawned function %s%s; the drain loop waiting on it will hang",
			tr.label(), clearVerb(tr.kind), suffix)
	}
	// Join: the tracker must be awaited somewhere.
	if !ls.awaited(fi, tr) {
		report(g.Pos(), "goroutine tracker %s is never awaited: no loop condition waits on it and no Wait() joins it; the goroutine can outlive Close",
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
func (ls *lifetimeState) checkInferred(fi *FuncInfo, g *ast.GoStmt, report func(token.Pos, string, ...any)) {
	p := fi.Pkg
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		report(g.Pos(), "go statement has no declared lifecycle; annotate it with `//boltvet:goroutine <tracker> -- <why>` naming the bool/counter/WaitGroup that tracks it")
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
		if !ok || sel.Sel.Name != "Done" || !isWaitGroupType(typeOf(p, sel.X)) {
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
			report(g.Pos(), "goroutine calls Done on %s but nothing in the program Waits on it; the WaitGroup joins nobody",
				shortLockKey(doneKey))
		}
	case doneObj != nil:
		if !waitsOnObject(p, fi.Decl.Body, doneObj) {
			report(g.Pos(), "goroutine calls Done on WaitGroup %q but the spawning function never Waits on it; the goroutine can outlive its spawner",
				doneObj.Name())
		}
	default:
		report(g.Pos(), "go statement has no declared lifecycle; annotate it with `//boltvet:goroutine <tracker> -- <why>` or adopt the WaitGroup Done/Wait discipline")
	}
}

// waitsOnObject reports whether body (closures included — a stop
// function returned by the spawner is the common shape) calls Wait on
// the given WaitGroup variable.
func waitsOnObject(p *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
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
		if tr := fieldTracker(p, typeOf(p, sel.X), name); tr != nil {
			return tr
		}
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		if tv, ok := p.Info.Types[fi.Decl.Recv.List[0].Type]; ok {
			if tr := fieldTracker(p, tv.Type, name); tr != nil {
				return tr
			}
		}
	}
	var tr *trackerRef
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name || tr != nil {
			return tr == nil
		}
		if obj := p.Info.Defs[id]; obj != nil && isWaitGroupType(obj.Type()) {
			tr = &trackerRef{kind: trackLocalWG, obj: obj, fieldName: name}
		}
		return true
	})
	return tr
}

// fieldTracker resolves name as a trackable field of t's named struct.
func fieldTracker(p *Package, t types.Type, name string) *trackerRef {
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
		pkg := ""
		if named.Obj().Pkg() != nil {
			pkg = named.Obj().Pkg().Path()
		}
		return &trackerRef{
			kind:       kind,
			key:        pkg + "." + named.Obj().Name() + "." + name,
			structName: named.Obj().Name(),
			fieldName:  name,
		}
	}
	return nil
}

func trackerKindOf(t types.Type) (trackerKind, bool) {
	if isWaitGroupType(t) {
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

// findClear searches for a tracker clear reachable from the spawned
// call: the spawned function literal's own body, or a bounded BFS
// through the call graph from the spawned function (calls inside
// literals included). The returned chain is the deepest path checked,
// for the not-found witness.
func (ls *lifetimeState) findClear(p *Package, call *ast.CallExpr, tr *trackerRef) (chain []string, found bool) {
	var frontier []string // function keys to search from
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if clearsInNode(p, fun.Body, tr) {
			return nil, true
		}
		frontier = calleeKeysIn(p, fun.Body)
	default:
		if fn := funcObjOf(p, fun); fn != nil {
			frontier = []string{funcKey(fn)}
		}
	}
	type item struct {
		key   string
		chain []string
	}
	visited := make(map[string]bool)
	queue := make([]item, 0, len(frontier))
	for _, k := range frontier {
		queue = append(queue, item{key: k})
	}
	var longest []string
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.key] || len(it.chain) >= maxLifetimeDepth {
			continue
		}
		visited[it.key] = true
		fi := ls.prog.Funcs[it.key]
		if fi == nil || fi.Decl == nil {
			continue
		}
		next := append(append([]string{}, it.chain...), fi.Name)
		if len(next) > len(longest) {
			longest = next
		}
		if ls.clearsOf(fi)[tr.trackerID()] {
			return next, true
		}
		for _, k := range ls.calleesOf(fi) {
			if !visited[k] {
				queue = append(queue, item{key: k, chain: next})
			}
		}
	}
	return longest, false
}

// trackerID is the cache key for clear sets: the field key for struct
// trackers, a pointer-unique string for locals.
func (tr *trackerRef) trackerID() string {
	if tr.kind == trackLocalWG {
		return fmt.Sprintf("local:%p", tr.obj)
	}
	return tr.key
}

// clearsOf returns (computing on first use) the tracker IDs fi's body
// clears: bool fields assigned false, integer fields decremented, and
// WaitGroup fields Done'd. Function literal bodies are included — a
// clear inside a deferred closure still runs.
func (ls *lifetimeState) clearsOf(fi *FuncInfo) map[string]bool {
	if c, ok := ls.clears[fi.Key]; ok {
		return c
	}
	c := make(map[string]bool)
	collectClears(fi.Pkg, fi.Decl.Body, c)
	ls.clears[fi.Key] = c
	return c
}

// clearsInNode reports whether the node clears tr directly.
func clearsInNode(p *Package, n ast.Node, tr *trackerRef) bool {
	c := make(map[string]bool)
	collectClears(p, n, c)
	if c[tr.trackerID()] {
		return true
	}
	// Local WaitGroup Done: collectClears records field keys only, so
	// check idents here.
	if tr.kind == trackLocalWG {
		found := false
		ast.Inspect(n, func(nn ast.Node) bool {
			call, ok := nn.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				return true
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.Info.Uses[id] == tr.obj {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// collectClears records every tracker clear in n into out, keyed by
// field key.
func collectClears(p *Package, n ast.Node, out map[string]bool) {
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
			if !ok || sel.Sel.Name != "Done" || !isWaitGroupType(typeOf(p, sel.X)) {
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
}

// calleesOf returns (computing on first use) every statically resolvable
// callee key in fi's body, including calls inside function literals.
func (ls *lifetimeState) calleesOf(fi *FuncInfo) []string {
	if c, ok := ls.callees[fi.Key]; ok {
		return c
	}
	keys := calleeKeysIn(fi.Pkg, fi.Decl.Body)
	ls.callees[fi.Key] = keys
	return keys
}

func calleeKeysIn(p *Package, n ast.Node) []string {
	seen := make(map[string]bool)
	var out []string
	ast.Inspect(n, func(nn ast.Node) bool {
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := funcObjOf(p, ast.Unparen(call.Fun)); fn != nil {
			if key := funcKey(fn); !seen[key] {
				seen[key] = true
				out = append(out, key)
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
		return waitsOnObject(fi.Pkg, fi.Decl.Body, tr.obj)
	default:
		return ls.waitedFields[tr.key]
	}
}

// fieldKeyOf identifies a struct-field selector as "pkgpath.Type.field",
// or "" for anything that is not a field access on a named struct.
func fieldKeyOf(p *Package, sel *ast.SelectorExpr) string {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	named := namedOf(typeOf(p, sel.X))
	if named == nil {
		return ""
	}
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	return pkg + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// isWaitGroupType reports whether t (possibly behind a pointer) is
// sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isCondType reports whether t (possibly behind a pointer) is sync.Cond.
func isCondType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Cond"
}
