package boltvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// Per-function summaries, RacerD-style: each function is analyzed against
// the current summaries of its callees, and the whole program iterates to
// a fixed point. Every summary kind runs on the one driver, summarize:
//
//   - lockSummary: which mutexes the function may acquire (directly or
//     through any call chain), and for each, which locks it is guaranteed
//     to have released first. "Released first" is what makes the engine's
//     unlock-then-relock convention (logAndApplyLocked releases the engine
//     mutex before taking the manifest mutex) analyzable without flagging
//     every caller that holds the engine mutex.
//   - the barrier chain: whether the function may return an error born at
//     a durability barrier (Sync/SyncDir/LogAndApply/CommitPrepared/
//     WriteFile), as the call chain that carries it. errflow uses this to
//     flag callers that drop such a helper's error.
//   - mustclose's parameter fates, guardedby's entry obligations, and the
//     may-sets (condcheck's may-signal, golifetime's may-clear) are kinds
//     their analyzers drive the same way.

// maxSummaryPasses caps the fixed point; summaries stabilize in two or
// three passes on this codebase (call-chain depth, not size, drives it).
const maxSummaryPasses = 16

// summarize drives one summary kind to its fixed point: every checked
// function's summary is rebuilt by build, which reads its callees' current
// summaries from sums, until a whole pass changes none (by equal) or
// maxSummaryPasses is reached.
func summarize[S any](prog *Program, sums map[*FuncInfo]S, build func(*FuncInfo) S, equal func(a, b S) bool) {
	for pass := 0; pass < maxSummaryPasses; pass++ {
		changed := false
		for _, fi := range prog.funcs() {
			if s := build(fi); !equal(sums[fi], s) {
				sums[fi] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// sameKeys compares two sets (or maps compared by key only).
func sameKeys[V any](a, b map[string]V) bool {
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

// maySets is the summary kind "keys a function or anything it calls may
// produce": direct[fi] plus its callees' sets, through call sites outside
// function literals, and inside them too when lits is set.
func maySets(prog *Program, direct map[*FuncInfo]map[string]bool, lits bool) map[*FuncInfo]map[string]bool {
	sums := make(map[*FuncInfo]map[string]bool)
	summarize(prog, sums, func(fi *FuncInfo) map[string]bool {
		set := make(map[string]bool)
		for k := range direct[fi] {
			set[k] = true
		}
		calls := fi.Calls
		if lits {
			calls = append(slices.Clip(calls), fi.LitCalls...)
		}
		for _, cs := range calls {
			for _, t := range cs.Targets {
				for k := range sums[prog.Funcs[t]] {
					set[k] = true
				}
			}
		}
		return set
	}, sameKeys[bool])
	return sums
}

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

// lockSummary maps each lock key a function may acquire to how.
type lockSummary map[string]*lockAcquire

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
	return &lockWalker{prog: prog, fi: fi, emit: emit}
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
	cs := w.fi.site(call)
	if cs == nil {
		return
	}
	if w.onCall != nil {
		w.onCall(cs, st, w.inDefer)
	}
	for _, target := range cs.Targets {
		callee := w.prog.Funcs[target]
		sum := w.prog.locks[callee]
		if len(sum) == 0 || callee == w.fi {
			continue
		}
		for _, key := range sortedKeys(sum) {
			acq := sum[key]
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

// summarizeLocks computes fi's lock summary against the callees' current
// ones (nil when fi acquires nothing).
func (prog *Program) summarizeLocks(fi *FuncInfo) lockSummary {
	var sum lockSummary
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
		if prev, ok := sum[ev.key]; ok {
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
		if sum == nil {
			sum = make(lockSummary)
		}
		sum[ev.key] = &lockAcquire{
			read:           ev.read,
			releasedBefore: rb,
			chain:          ev.chain,
			pos:            ev.pos,
		}
	})
	w.walkFrom(newLockState())
	return sum
}

func lockSummariesEqual(a, b lockSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
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

// barrierChain runs the per-function taint analysis and keeps only the
// summary-relevant part: the call chain down to the durability barrier
// whose error fi may return, or nil.
func (prog *Program) barrierChain(fi *FuncInfo) []string {
	for _, src := range analyzeErrFlow(prog, fi) {
		if src.returned && !src.weak && !src.inLit {
			return src.chain
		}
	}
	return nil
}

// ComputeSummaries drives the lock summaries and barrier chains, which the
// interprocedural analyzers read, to their fixed points.
func ComputeSummaries(prog *Program) {
	prog.locks = make(map[*FuncInfo]lockSummary)
	summarize(prog, prog.locks, prog.summarizeLocks, lockSummariesEqual)
	prog.errs = make(map[*FuncInfo][]string)
	summarize(prog, prog.errs, prog.barrierChain, func(a, b []string) bool { return (a == nil) == (b == nil) })
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
func analyzeErrFlow(prog *Program, fi *FuncInfo) []*errSource {
	p := fi.Pkg
	var sources []*errSource

	// Collect sources. Direct sites are found inside function literals too;
	// helper sites only where the call graph resolved them.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if barrierMethods[name] && len(errorResultIndices(p, call)) > 0 {
			sources = append(sources, &errSource{call: call, name: name, chain: []string{name}, direct: true})
			return true
		}
		if cs := fi.site(call); cs != nil {
			for _, target := range cs.Targets {
				callee := prog.Funcs[target]
				if chain := prog.errs[callee]; chain != nil {
					sources = append(sources, &errSource{
						call:  call,
						name:  callee.Name,
						chain: append([]string{callee.Name}, chain...),
					})
					return true
				}
			}
		}
		if name == "Close" && len(errorResultIndices(p, call)) > 0 {
			sources = append(sources, &errSource{call: call, name: name, chain: []string{name}, direct: true, weak: true})
		}
		return true
	})
	if len(sources) > 0 {
		parents := fi.parentMap()
		for _, src := range sources {
			traceSource(p, fi, src, parents)
		}
	}
	return sources
}

// traceSource follows one origin's error through copies and fmt.Errorf
// wraps until it is consumed, returned, or dies. The scope is the
// innermost function (declaration or literal) containing the call.
// errflow's sink rule: a return or a named result takes the error out, a
// copy or a blank or statement-level wrap keeps it in play or drops it,
// and every other use (a comparison, a store, a call argument) handles it.
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
	sink := func(u use) {
		switch {
		case u.kind == useReturn || (u.kind == useCopy && resultObjs[u.obj]):
			src.returned, src.consumed = true, true
		case u.kind != useCopy && u.kind != useBlank && u.kind != useStmt:
			src.consumed = true
		}
	}
	t := &tracer{p: p, parents: parents, body: body, objs: make(map[types.Object]bool),
		through: func(c *ast.CallExpr) bool { return isErrorfWrap(p, c) }}
	blanks := 0
	t.classify(src.call, errorResultIndices(p, src.call), func(u use) {
		switch u.kind {
		case useStmt:
			src.discarded = "stmt"
		case useDefer:
			src.discarded = "defer"
		case useGo:
			src.discarded = "go"
		case useBlank:
			blanks++
		case useCopy:
			t.objs[u.obj] = true
			sink(u)
		default:
			src.mentioned = true
			sink(u)
		}
	})
	if blanks > 0 && len(t.objs) == 0 && !src.consumed {
		src.discarded = "underscore"
	}
	if src.discarded != "" || src.consumed {
		return
	}
	if len(t.objs) == 0 {
		// Error result position not captured (e.g. only non-error results
		// bound); nothing to trace.
		src.consumed = true
		return
	}
	t.grow()
	if t.captured() {
		src.mentioned, src.consumed = true, true
		return
	}
	t.uses(func(u use) {
		src.mentioned = true
		sink(u)
	})
}

// --- the value tracer: errflow's taint and mustclose's obligations ---

// useKind classifies one place a traced value ends up.
type useKind uint8

const (
	useOther  useKind = iota // any other expression: a comparison, an operand, an index
	useStmt                  // a bare expression statement
	useDefer                 // a deferred call
	useGo                    // a spawned call
	useBlank                 // assigned to _
	useCopy                  // assigned to a local: a new alias
	useStore                 // into a field or element, a composite literal, a send, or behind &
	useReturn                // returned
	useArg                   // passed as argument arg of call
	useSelect                // selected from: a field, or a method called on it
)

// use is one classified consumption of a traced value.
type use struct {
	kind useKind
	obj  types.Object  // useCopy: the local bound
	call *ast.CallExpr // useArg
	arg  int           // useArg
	sel  string        // useSelect: the selected name
}

// tracer follows one value through a function scope. The seed's context
// binds it to locals; var-to-var copies grow the alias set to a local fixed
// point; a capture by a nested function literal counts as handled (its
// lifetime is unknowable); every other use is classified by its context,
// and the analyzer's sink rule decides what each means.
type tracer struct {
	p       *Package
	parents map[ast.Node]ast.Node
	body    *ast.BlockStmt        // the scope
	objs    map[types.Object]bool // the value's local aliases
	// through reports calls whose result carries an argument's value
	// (errflow's fmt.Errorf wraps); nil for none.
	through func(*ast.CallExpr) bool
}

// classify visits the uses e's context makes of its value, looking past
// parentheses and through-calls. results are the positions of e's result
// tuple an assignment binds when e is its lone right-hand side (nil: e's
// own position).
func (t *tracer) classify(e ast.Expr, results []int, visit func(use)) {
	ctx := t.parents[e]
	for {
		if pe, ok := ctx.(*ast.ParenExpr); ok {
			e, ctx = pe, t.parents[pe]
		} else if c, ok := ctx.(*ast.CallExpr); ok && t.through != nil && c.Fun != e && t.through(c) {
			e, ctx = c, t.parents[c]
		} else {
			break
		}
	}
	u := use{}
	switch c := ctx.(type) {
	case *ast.ExprStmt:
		u.kind = useStmt
	case *ast.DeferStmt:
		u.kind = useDefer
	case *ast.GoStmt:
		u.kind = useGo
	case *ast.ReturnStmt:
		u.kind = useReturn
	case *ast.AssignStmt:
		for _, l := range bound(c.Lhs, c.Rhs, e, results) {
			visit(t.bind(l))
		}
		return // a write target binds nothing
	case *ast.ValueSpec:
		for _, l := range bound(c.Names, c.Values, e, results) {
			visit(t.bind(l))
		}
		return
	case *ast.CallExpr:
		if i := slices.Index(c.Args, e); i >= 0 {
			u = use{kind: useArg, call: c, arg: i}
		}
	case *ast.SelectorExpr:
		u = use{kind: useSelect, sel: c.Sel.Name}
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		u.kind = useStore
	case *ast.UnaryExpr:
		if c.Op == token.AND {
			u.kind = useStore
		}
	}
	visit(u)
}

// bound returns the assignment targets e's value lands in: by result
// position when e is the lone right-hand side, else at e's own position.
func bound[L ast.Expr](lhs []L, rhs []ast.Expr, e ast.Expr, results []int) []L {
	if len(rhs) == 1 && rhs[0] == e && results != nil {
		var out []L
		for _, i := range results {
			if i < len(lhs) {
				out = append(out, lhs[i])
			}
		}
		return out
	}
	if j := slices.Index(rhs, e); j >= 0 && j < len(lhs) {
		return lhs[j : j+1]
	}
	return nil
}

// bind classifies an assignment target.
func (t *tracer) bind(l ast.Expr) use {
	id, ok := l.(*ast.Ident)
	switch {
	case !ok:
		return use{kind: useStore}
	case id.Name == "_":
		return use{kind: useBlank}
	}
	obj := t.p.Info.Defs[id]
	if obj == nil {
		obj = t.p.Info.Uses[id]
	}
	if obj == nil {
		return use{}
	}
	return use{kind: useCopy, obj: obj}
}

// uses visits every use of the traced locals outside nested literals.
func (t *tracer) uses(visit func(use)) {
	inspectSkipFuncLit(t.body, func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && t.objs[t.p.Info.Uses[id]] {
			t.classify(id, nil, visit)
		}
	})
}

// grow adds every local the value is copied into, to a fixed point.
func (t *tracer) grow() {
	for n := -1; n != len(t.objs); {
		n = len(t.objs)
		t.uses(func(u use) {
			if u.kind == useCopy {
				t.objs[u.obj] = true
			}
		})
	}
}

// captured reports whether a function literal inside the scope references
// the value.
func (t *tracer) captured() bool {
	found := false
	ast.Inspect(t.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && t.objs[t.p.Info.Uses[id]] {
					found = true
				}
				return !found
			})
			return false
		}
		return !found
	})
	return found
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
