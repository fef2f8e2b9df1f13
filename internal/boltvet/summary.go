package boltvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Per-function summaries, RacerD-style: each function is analyzed once
// against the current summaries of its callees, and the whole program
// iterates to a fixed point. Two summaries exist per function:
//
//   - lockSummary: which mutexes the function may acquire (directly or
//     through any call chain), and for each, which locks it is guaranteed
//     to have released first. "Released first" is what makes the engine's
//     unlock-then-relock convention (logAndApplyLocked releases the engine
//     mutex before taking the manifest mutex) analyzable without flagging
//     every caller that holds the engine mutex.
//
//   - errSummary: whether the function may return an error born at a
//     durability barrier (Sync/SyncDir/LogAndApply/CommitPrepared/
//     WriteFile), and the call chain that carries it. errflow uses this to
//     flag callers that drop such a helper's error.
//
// maxSummaryPasses caps the fixed point; summaries stabilize in two or
// three passes on this codebase (call-chain depth, not size, drives it).
const maxSummaryPasses = 16

// --- lock summaries ---

type lockMode uint8

const (
	// lockEntry marks a mutex held by the caller's declaration (the *Locked
	// entry seed, Program.entryState), not acquired in the body: the
	// weakest mode, so joins with self-acquired paths stay caller-held.
	lockEntry lockMode = iota + 1
	lockRead
	lockWrite
)

// lockAcquire describes one mutex a function may acquire.
type lockAcquire struct {
	// read is true only if every acquiring site is a read lock.
	read bool
	// releasedBefore holds lock keys guaranteed (on every acquiring path)
	// to have been unlocked by this function or its callees before the
	// acquire happens.
	releasedBefore map[string]bool
	// chain is the witness call chain from this function to the Lock call
	// (empty when this function locks directly).
	chain []string
	pos   token.Pos
}

type lockSummary struct {
	acquires map[string]*lockAcquire
}

// lockState is the abstract state of the structured walker: which lock
// keys are currently held (and how), and which the function has released
// without holding (the *Locked unlock-then-relock pattern).
type lockState struct {
	held       map[string]lockMode
	released   map[string]bool
	terminated bool
}

func newLockState() *lockState {
	return &lockState{held: make(map[string]lockMode), released: make(map[string]bool)}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k := range st.released {
		c.released[k] = true
	}
	c.terminated = st.terminated
	return c
}

// join merges branch states: held survives only if held on every live
// branch (weakest mode wins), released accumulates from every live branch.
func joinLockStates(states ...*lockState) *lockState {
	var live []*lockState
	for _, st := range states {
		if st != nil && !st.terminated {
			live = append(live, st)
		}
	}
	if len(live) == 0 {
		out := newLockState()
		out.terminated = true
		return out
	}
	out := newLockState()
	for k, mode := range live[0].held {
		onAll := true
		for _, st := range live[1:] {
			m, ok := st.held[k]
			if !ok {
				onAll = false
				break
			}
			if m < mode {
				mode = m
			}
		}
		if onAll {
			out.held[k] = mode
		}
	}
	for _, st := range live {
		for k := range st.released {
			out.released[k] = true
		}
	}
	return out
}

// acqEvent is one acquire the walker observed: a direct Lock/RLock, or a
// call whose callee summary exposes an acquire.
type acqEvent struct {
	key  string
	read bool
	pos  token.Pos
	// chain is empty for direct locks; for calls it is the callee chain
	// down to the Lock.
	chain []string
	// calleeReleased is the callee's releasedBefore for this key (nil for
	// direct locks): locks the callee unlocks before acquiring key.
	calleeReleased map[string]bool
	// state snapshots at the event.
	held     map[string]lockMode
	released map[string]bool
	// deferred marks events from DeferStmt calls: they run at return, so
	// the held snapshot is unreliable and local checks are skipped.
	deferred bool
}

// lockWalker drives the structured traversal of one function body.
type lockWalker struct {
	prog    *Program
	fi      *FuncInfo
	sites   map[*ast.CallExpr]*CallSite
	emit    func(acqEvent)
	inDefer bool

	// onSelector, when set, observes every selector expression with the
	// lock state current at its evaluation point (guardedby's event
	// source). The state must not be mutated by the hook.
	onSelector func(sel *ast.SelectorExpr, st *lockState)
	// onCall, when set, observes every resolved non-mutex call site with
	// the state current at the call (deferred marks calls inside defer,
	// whose execution-time state is unknowable).
	onCall func(cs *CallSite, st *lockState, deferred bool)
}

func newLockWalker(prog *Program, fi *FuncInfo, emit func(acqEvent)) *lockWalker {
	sites := make(map[*ast.CallExpr]*CallSite, len(fi.Calls))
	for _, cs := range fi.Calls {
		sites[cs.Call] = cs
	}
	return &lockWalker{prog: prog, fi: fi, sites: sites, emit: emit}
}

func (w *lockWalker) walk() {
	w.walkFrom(newLockState())
}

// walkFrom runs the walker with a caller-provided initial state (the
// *Locked entry seed).
func (w *lockWalker) walkFrom(st *lockState) {
	w.walkStmts(w.fi.Decl.Body.List, st)
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, st *lockState) {
	for _, s := range stmts {
		if st.terminated {
			return
		}
		w.walkStmt(s, st)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) {
	switch v := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.walkExpr(v.X, st)
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			w.walkExpr(e, st)
		}
		for _, e := range v.Lhs {
			w.walkExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.walkExpr(v.X, st)
	case *ast.SendStmt:
		w.walkExpr(v.Chan, st)
		w.walkExpr(v.Value, st)
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			w.walkExpr(e, st)
		}
		st.terminated = true
	case *ast.BranchStmt:
		// break/continue/goto leave the structured path; stop tracking it.
		st.terminated = true
	case *ast.BlockStmt:
		w.walkStmts(v.List, st)
	case *ast.LabeledStmt:
		w.walkStmt(v.Stmt, st)
	case *ast.IfStmt:
		w.walkStmt(v.Init, st)
		w.walkExpr(v.Cond, st)
		thenSt := st.clone()
		w.walkStmts(v.Body.List, thenSt)
		elseSt := st.clone()
		if v.Else != nil {
			w.walkStmt(v.Else, elseSt)
		}
		*st = *joinLockStates(thenSt, elseSt)
	case *ast.ForStmt:
		w.walkStmt(v.Init, st)
		w.walkExpr(v.Cond, st)
		// Two passes over the body: the second catches locks carried from
		// one iteration into the next (Lock with no Unlock in a loop).
		bodySt := st.clone()
		w.walkStmts(v.Body.List, bodySt)
		w.walkStmt(v.Post, bodySt)
		if !bodySt.terminated {
			again := bodySt.clone()
			w.walkStmts(v.Body.List, again)
		}
		*st = *joinLockStates(st, bodySt)
	case *ast.RangeStmt:
		w.walkExpr(v.X, st)
		bodySt := st.clone()
		w.walkStmts(v.Body.List, bodySt)
		if !bodySt.terminated {
			again := bodySt.clone()
			w.walkStmts(v.Body.List, again)
		}
		*st = *joinLockStates(st, bodySt)
	case *ast.SwitchStmt:
		w.walkStmt(v.Init, st)
		w.walkExpr(v.Tag, st)
		w.walkCases(v.Body, st)
	case *ast.TypeSwitchStmt:
		w.walkStmt(v.Init, st)
		w.walkStmt(v.Assign, st)
		w.walkCases(v.Body, st)
	case *ast.SelectStmt:
		w.walkCases(v.Body, st)
	case *ast.DeferStmt:
		w.walkDefer(v.Call, st)
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the spawner's held locks;
		// its arguments are still evaluated here.
		w.walkExprsOnly(v.Call, st)
	}
}

// walkCases handles switch/select bodies: each clause runs on a clone of
// the incoming state and the results join (plus the fall-through state,
// since no clause may match).
func (w *lockWalker) walkCases(body *ast.BlockStmt, st *lockState) {
	states := []*lockState{st.clone()}
	hasDefault := false
	for _, clause := range body.List {
		cl := st.clone()
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.walkExpr(e, cl)
			}
			w.walkStmts(c.Body, cl)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			w.walkStmt(c.Comm, cl)
			w.walkStmts(c.Body, cl)
		}
		states = append(states, cl)
	}
	if hasDefault {
		states = states[1:] // some clause always runs
	}
	*st = *joinLockStates(states...)
}

// walkDefer processes a deferred call: deferred unlocks keep the lock held
// for the body remainder (they pay at return), deferred lock-acquiring
// calls are summarized without local double-lock checks.
func (w *lockWalker) walkDefer(call *ast.CallExpr, st *lockState) {
	if _, _, _, isMutexOp := mutexOpOf(w.fi.Pkg, call); isMutexOp {
		return // defer mu.Unlock(): the lock stays held until return
	}
	prev := w.inDefer
	w.inDefer = true
	w.walkExpr(call, st)
	w.inDefer = prev
}

// walkExprsOnly evaluates a call's sub-expressions without processing the
// call itself (go statements).
func (w *lockWalker) walkExprsOnly(call *ast.CallExpr, st *lockState) {
	for _, a := range call.Args {
		w.walkExpr(a, st)
	}
}

// walkExpr visits e's sub-expressions in evaluation order and processes
// any calls found. FuncLit bodies are skipped: their execution time is
// unknown (documented soundness limit).
func (w *lockWalker) walkExpr(e ast.Expr, st *lockState) {
	switch v := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.walkExpr(v.Fun, st)
		for _, a := range v.Args {
			w.walkExpr(a, st)
		}
		w.processCall(v, st)
	case *ast.ParenExpr:
		w.walkExpr(v.X, st)
	case *ast.SelectorExpr:
		w.walkExpr(v.X, st)
		if w.onSelector != nil {
			w.onSelector(v, st)
		}
	case *ast.StarExpr:
		w.walkExpr(v.X, st)
	case *ast.UnaryExpr:
		w.walkExpr(v.X, st)
	case *ast.BinaryExpr:
		w.walkExpr(v.X, st)
		w.walkExpr(v.Y, st)
	case *ast.IndexExpr:
		w.walkExpr(v.X, st)
		w.walkExpr(v.Index, st)
	case *ast.IndexListExpr:
		w.walkExpr(v.X, st)
		for _, idx := range v.Indices {
			w.walkExpr(idx, st)
		}
	case *ast.SliceExpr:
		w.walkExpr(v.X, st)
		w.walkExpr(v.Low, st)
		w.walkExpr(v.High, st)
		w.walkExpr(v.Max, st)
	case *ast.TypeAssertExpr:
		w.walkExpr(v.X, st)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			w.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(v.Key, st)
		w.walkExpr(v.Value, st)
	}
}

// processCall is the walker's event source: direct mutex operations update
// the state; calls to summarized functions replay their exposed acquires.
func (w *lockWalker) processCall(call *ast.CallExpr, st *lockState) {
	p := w.fi.Pkg
	if key, acquire, read, ok := mutexOpOf(p, call); ok {
		if acquire {
			w.emitEvent(acqEvent{key: key, read: read, pos: call.Pos()}, st)
			mode := lockWrite
			if read {
				mode = lockRead
			}
			st.held[key] = mode
		} else {
			// released is monotone: once this function has let go of a
			// lock, every later acquire of it is the function's own
			// business, not the caller's hold — re-acquiring must not
			// erase that (the unlock-then-relock pattern depends on it).
			delete(st.held, key)
			st.released[key] = true
		}
		return
	}
	cs, ok := w.sites[call]
	if !ok {
		return
	}
	if w.onCall != nil {
		w.onCall(cs, st, w.inDefer)
	}
	for _, target := range cs.Targets {
		callee := w.prog.Funcs[target]
		if callee == nil || callee.locks == nil || callee == w.fi {
			continue
		}
		for _, key := range sortedKeys(callee.locks.acquires) {
			acq := callee.locks.acquires[key]
			w.emitEvent(acqEvent{
				key:            key,
				read:           acq.read,
				pos:            call.Pos(),
				chain:          append([]string{callee.Name}, acq.chain...),
				calleeReleased: acq.releasedBefore,
			}, st)
		}
	}
}

func (w *lockWalker) emitEvent(ev acqEvent, st *lockState) {
	if w.emit == nil {
		return
	}
	ev.held = st.held
	ev.released = st.released
	ev.deferred = w.inDefer
	w.emit(ev)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// buildLockSummary computes fi's summary against the callees' current ones.
func buildLockSummary(prog *Program, fi *FuncInfo) *lockSummary {
	sum := &lockSummary{acquires: make(map[string]*lockAcquire)}
	w := newLockWalker(prog, fi, func(ev acqEvent) {
		// releasedBefore as seen by fi's caller: everything fi released up
		// to this point plus everything the callee releases first.
		rb := make(map[string]bool, len(ev.released)+len(ev.calleeReleased))
		for k := range ev.released {
			rb[k] = true
		}
		for k := range ev.calleeReleased {
			rb[k] = true
		}
		if prev, ok := sum.acquires[ev.key]; ok {
			// Merge: releasedBefore must hold on every acquiring path.
			for k := range prev.releasedBefore {
				if !rb[k] {
					delete(prev.releasedBefore, k)
				}
			}
			if !ev.read {
				prev.read = false
			}
			return
		}
		sum.acquires[ev.key] = &lockAcquire{
			read:           ev.read,
			releasedBefore: rb,
			chain:          ev.chain,
			pos:            ev.pos,
		}
	})
	w.walk()
	return sum
}

func lockSummariesEqual(a, b *lockSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.acquires) != len(b.acquires) {
		return false
	}
	for k, av := range a.acquires {
		bv, ok := b.acquires[k]
		if !ok || av.read != bv.read || len(av.releasedBefore) != len(bv.releasedBefore) {
			return false
		}
		for rk := range av.releasedBefore {
			if !bv.releasedBefore[rk] {
				return false
			}
		}
	}
	return true
}

// --- error-flow summaries ---

// errSummary records that a function may return an error originating at a
// durability barrier, with the witness call chain down to the barrier.
type errSummary struct {
	returnsBarrier bool
	chain          []string
}

// buildErrSummary runs the per-function taint analysis and keeps only the
// summary-relevant bit: does a barrier-born error reach a return value?
func buildErrSummary(prog *Program, fi *FuncInfo) *errSummary {
	t := analyzeErrFlow(prog, fi)
	for _, src := range t.sources {
		if src.returned && !src.weak && !src.inLit {
			return &errSummary{returnsBarrier: true, chain: src.chain}
		}
	}
	return &errSummary{}
}

func errSummariesEqual(a, b *errSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.returnsBarrier == b.returnsBarrier
}

// ComputeSummaries drives the fixed point over both summary kinds.
func ComputeSummaries(prog *Program) {
	funcs := prog.sortedFuncs()
	for pass := 0; pass < maxSummaryPasses; pass++ {
		changed := false
		for _, fi := range funcs {
			nl := buildLockSummary(prog, fi)
			if !lockSummariesEqual(fi.locks, nl) {
				fi.locks = nl
				changed = true
			}
			ne := buildErrSummary(prog, fi)
			if !errSummariesEqual(fi.errs, ne) {
				fi.errs = ne
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// --- per-function error taint (shared by errflow and the summaries) ---

// errSource is one barrier-error origin inside a function: a direct
// barrier call, a call to a helper whose summary returns a barrier error,
// or a weak Close.
type errSource struct {
	call   *ast.CallExpr
	name   string
	chain  []string // [callee, ..., barrier method]
	direct bool
	// weak marks a Close: reported only as a bare statement, never traced,
	// and never a reason to summarize the function as barrier-born.
	weak bool
	// inLit marks a direct site inside a function literal: traced within
	// the literal, whose returns are not the function's.
	inLit bool
	// discarded is non-empty when the call's results are structurally
	// dropped: "stmt", "underscore", "defer", "go".
	discarded string
	// mentioned is true when a tainted value is referenced at all after
	// capture.
	mentioned bool
	// consumed is true when the taint reaches a sink: a return, a call
	// argument (other than an fmt.Errorf wrap), a field/map/slice store, a
	// comparison, a channel send, a panic.
	consumed bool
	// returned is true when the taint reaches a return value.
	returned bool
}

type errTaint struct {
	sources []*errSource
}

// barrierMethods are the durability barriers: an error from any of these
// means data the engine believes durable may not be. Discarding one —
// even explicitly with `_ =` — is a crash-consistency bug. Close is not
// one: closes are best-effort on error and read paths, so only a bare
// Close statement is reported (an explicit `_ =` is a reviewable choice).
var barrierMethods = map[string]bool{
	"Sync":           true,
	"SyncDir":        true,
	"LogAndApply":    true,
	"CommitPrepared": true,
	// WriteFile syncs both the file and its directory entry (it backs the
	// CURRENT pointer switch); dropping its error loses the barrier.
	"WriteFile": true,
}

// analyzeErrFlow computes, for each barrier-error origin in fi, whether
// the error provably reaches a sink. It is flow-insensitive within the
// function (any textual sink counts) — deliberate: false negatives are
// cheaper than false positives that train people to ignore the analyzer.
func analyzeErrFlow(prog *Program, fi *FuncInfo) *errTaint {
	p := fi.Pkg
	t := &errTaint{}
	sites := make(map[*ast.CallExpr]*CallSite, len(fi.Calls))
	for _, cs := range fi.Calls {
		sites[cs.Call] = cs
	}

	// Collect sources. Direct sites are found inside function literals too;
	// helper sites only where the call graph resolved them.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if barrierMethods[name] && len(errorResultIndices(p, call)) > 0 {
			t.sources = append(t.sources, &errSource{call: call, name: name, chain: []string{name}, direct: true})
			return true
		}
		if cs, ok := sites[call]; ok {
			for _, target := range cs.Targets {
				callee := prog.Funcs[target]
				if callee != nil && callee.errs != nil && callee.errs.returnsBarrier {
					t.sources = append(t.sources, &errSource{
						call:  call,
						name:  callee.Name,
						chain: append([]string{callee.Name}, callee.errs.chain...),
					})
					return true
				}
			}
		}
		if name == "Close" && len(errorResultIndices(p, call)) > 0 {
			t.sources = append(t.sources, &errSource{call: call, name: name, chain: []string{name}, direct: true, weak: true})
		}
		return true
	})
	if len(t.sources) == 0 {
		return t
	}

	parents := fi.parentMap()
	for _, src := range t.sources {
		traceSource(p, fi, src, parents)
	}
	return t
}

// traceSource follows one origin's error through copies and fmt.Errorf
// wraps until it is consumed, returned, or dies. The scope is the
// innermost function (declaration or literal) containing the call.
func traceSource(p *Package, fi *FuncInfo, src *errSource, parents map[ast.Node]ast.Node) {
	if src.weak {
		if _, bare := parents[src.call].(*ast.ExprStmt); bare {
			src.discarded = "stmt"
		}
		return
	}
	body, ftype := fi.Decl.Body, fi.Decl.Type
	for n := parents[src.call]; n != nil; n = parents[n] {
		if lit, ok := n.(*ast.FuncLit); ok {
			body, ftype, src.inLit = lit.Body, lit.Type, true
			break
		}
	}
	// Named result objects: assignment into one is a return.
	resultObjs := make(map[types.Object]bool)
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			for _, name := range f.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					resultObjs[obj] = true
				}
			}
		}
	}
	taintedObjs := make(map[types.Object]bool)
	taintedCalls := map[*ast.CallExpr]bool{src.call: true}

	// seedCall classifies the immediate context of a tainted call's result.
	var seedCall func(call *ast.CallExpr)
	seedCall = func(call *ast.CallExpr) {
		parent := parents[call]
		if pp, ok := parent.(*ast.ParenExpr); ok {
			parent = parents[pp]
		}
		switch ctx := parent.(type) {
		case *ast.ExprStmt:
			src.discarded = "stmt"
		case *ast.DeferStmt:
			src.discarded = "defer"
		case *ast.GoStmt:
			src.discarded = "go"
		case *ast.AssignStmt:
			idxs := errorResultIndices(p, call)
			if len(idxs) == 0 {
				src.consumed = true // no error result: out of scope
				return
			}
			// Map each error result position to its LHS: with one RHS the
			// positions line up; with several, the call binds 1:1 at its own
			// index.
			var lhs []ast.Expr
			if len(ctx.Rhs) == 1 {
				for _, i := range idxs {
					if i < len(ctx.Lhs) {
						lhs = append(lhs, ctx.Lhs[i])
					}
				}
			} else {
				for j, r := range ctx.Rhs {
					if ast.Unparen(r) == call && j < len(ctx.Lhs) {
						lhs = append(lhs, ctx.Lhs[j])
					}
				}
			}
			blanks, captures := 0, 0
			for _, l := range lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					// Stored into a field/index: recorded somewhere real.
					src.consumed = true
					src.mentioned = true
					return
				}
				if id.Name == "_" {
					blanks++
					continue
				}
				captures++
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil {
					taintedObjs[obj] = true
					if resultObjs[obj] {
						src.returned = true
						src.consumed = true
					}
				}
			}
			if blanks > 0 && captures == 0 {
				src.discarded = "underscore"
			}
		case *ast.ReturnStmt:
			src.returned = true
			src.consumed = true
			src.mentioned = true
		case *ast.CallExpr:
			if isErrorfWrap(p, ctx) {
				src.mentioned = true
				taintedCalls[ctx] = true
				seedCall(ctx)
				return
			}
			// Result fed straight into another call: handled there.
			src.consumed = true
			src.mentioned = true
		default:
			// if err := ...; comparison; etc. — treated as handled.
			src.consumed = true
			src.mentioned = true
		}
	}
	seedCall(src.call)

	if src.discarded != "" || src.consumed {
		return
	}
	if len(taintedObjs) == 0 {
		// Error result position not captured (e.g. only non-error results
		// bound); nothing to trace.
		src.consumed = true
		return
	}

	// Propagate through copies and wraps to a local fixed point, then scan
	// for consumption.
	for {
		grew := false
		inspectSkipFuncLit(body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i := range as.Rhs {
				rhs := ast.Unparen(as.Rhs[i])
				tainted := false
				if id, ok := rhs.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && taintedObjs[obj] {
						tainted = true
					}
				}
				if call, ok := rhs.(*ast.CallExpr); ok {
					if taintedCalls[call] || (isErrorfWrap(p, call) && callHasTaintedArg(p, call, taintedObjs, taintedCalls)) {
						taintedCalls[call] = true
						tainted = true
					}
				}
				if !tainted {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if id.Name == "_" {
						continue // discarded copy: the taint dies here
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj != nil && !taintedObjs[obj] {
						taintedObjs[obj] = true
						grew = true
					}
					if obj != nil && resultObjs[obj] {
						src.returned = true
						src.consumed = true
					}
				} else {
					// Tainted value stored into a field/element: recorded.
					src.consumed = true
				}
			}
		})
		if !grew {
			break
		}
	}

	// A tainted value used inside a nested function literal escapes into a
	// closure this walk does not follow: count it as handled.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && taintedObjs[p.Info.Uses[id]] {
					src.mentioned, src.consumed = true, true
				}
				return !src.consumed
			})
		}
		return !src.consumed
	})

	// Consumption scan: any use of a tainted object that is not a plain
	// copy, a blank discard, or an fmt.Errorf wrap argument is a sink.
	inspectSkipFuncLit(body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Uses[id]
		if obj == nil || !taintedObjs[obj] {
			return
		}
		src.mentioned = true
		switch ctx := parents[id].(type) {
		case *ast.AssignStmt:
			for _, l := range ctx.Lhs {
				if l == id {
					return // write target, not a use
				}
			}
			for i, r := range ctx.Rhs {
				if r == id && i < len(ctx.Lhs) {
					if lid, ok := ctx.Lhs[i].(*ast.Ident); ok {
						if lid.Name == "_" {
							return // discarded copy
						}
						return // var-to-var copy: propagation handled it
					}
					// Stored into a field/map/slice element: a record sink.
					src.consumed = true
					return
				}
			}
			src.consumed = true
		case *ast.CallExpr:
			if isErrorfWrap(p, ctx) {
				return // wrap: the taint moves to the wrap's result
			}
			src.consumed = true
		case *ast.ReturnStmt:
			src.returned = true
			src.consumed = true
		default:
			src.consumed = true
		}
	})

	if src.returned {
		src.consumed = true
	}
}

// callHasTaintedArg reports whether any argument of call is a tainted
// identifier or tainted call result.
func callHasTaintedArg(p *Package, call *ast.CallExpr, objs map[types.Object]bool, calls map[*ast.CallExpr]bool) bool {
	for _, a := range call.Args {
		a = ast.Unparen(a)
		if id, ok := a.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && objs[obj] {
				return true
			}
		}
		if c, ok := a.(*ast.CallExpr); ok && calls[c] {
			return true
		}
	}
	return false
}

// isErrorfWrap reports whether call is fmt.Errorf (the %w wrap); the verb
// itself is not checked — wrapping without %w still visibly carries the
// message, which is closer to handling than to swallowing.
func isErrorfWrap(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "fmt"
}

// buildParentMap records each node's immediate parent within root.
func buildParentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
