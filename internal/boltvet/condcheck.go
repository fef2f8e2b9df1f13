package boltvet

import (
	"go/ast"
	"go/token"
)

// CondCheck verifies the engine's sync.Cond protocol, the mechanism
// behind every drain loop and the group-commit write queue — and behind
// the PR 4 stall deadlock, where a state change without a matching
// Broadcast left waiters asleep forever. Three rules:
//
//   - Wait only inside a loop. A condition variable wakeup is a hint,
//     not a message: the predicate must be rechecked, so a Wait whose
//     nearest enclosing statement chain has no for loop is reported.
//     One level of indirection is allowed — a helper whose body is just
//     the Wait (the engine's stallOnCondLocked) passes when every one
//     of its call sites is itself inside a loop; a non-looping call
//     site is reported with the helper chain as the witness.
//
//   - Wait with the cond's mutex held, and no other tracked mutex. The
//     cond-to-mutex binding is learned from sync.NewCond(&mu) calls and
//     cond.L = &mu assignments; at each Wait the summary-backed lock
//     walker must show the bound mutex held. Holding a second acquired
//     mutex across Wait is reported: Wait releases only its own mutex,
//     so the second is held across the sleep — the lockorder hazard in
//     temporal form. Mutexes held only by a *Locked declaration (entry
//     mode) are the caller's business and not flagged.
//
//   - Signal/Broadcast after every predicate mutation. Every field some
//     Wait loop's condition mentions is a waited-on predicate; a
//     function that mutates one must have a Signal/Broadcast of the
//     associated cond (direct, or through a callee per the transitive
//     signal summaries) positioned after the mutation. A function with
//     no signal of its own is discharged when every call site is
//     followed by one in its caller. Anything else is a missed-wakeup
//     report at the mutation.
//
// Soundness limits (DESIGN.md §6a): the after-mutation check is
// positional within a function, not path-sensitive; Waits inside
// function literals get the loop check but not the lock-state check;
// cond and predicate identity is type-based. The -race tier and the
// TestCloseVs* drain table are the runtime backstops.
var CondCheck = &Analyzer{
	Name:       "condcheck",
	Doc:        "verifies sync.Cond protocol: Wait in a rechecking loop with the bound mutex held, Signal/Broadcast after predicate mutations",
	RunProgram: runCondCheck,
}

// condOpOf decodes call as a sync.Cond operation, returning the cond's
// lock key and the method name (Wait, Signal, Broadcast).
func condOpOf(p *Package, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Wait", "Signal", "Broadcast":
	default:
		return "", "", false
	}
	if !isSyncType(typeOf(p, sel.X), "Cond") {
		return "", "", false
	}
	key = lockKeyOf(p, sel.X)
	if key == "" {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

// sigPos is one direct Signal/Broadcast site.
type sigPos struct {
	pos token.Pos
	key string // cond key
}

// bareWait is a Wait with no enclosing loop in its own function,
// deferred to the call-site check.
type bareWait struct {
	fi   *FuncInfo
	call *ast.CallExpr
	key  string // cond key
}

type condState struct {
	prog *Program
	// binds maps cond key -> mutex key ("" when ambiguous).
	binds map[string]string
	// waitedPreds maps predicate field key -> cond keys whose Wait loops
	// recheck it.
	waitedPreds map[string]map[string]bool
	// waitLoopAt maps predicate field key -> a witness wait-loop position.
	waitLoopAt map[string]string
	// directSigs maps each function to its direct signal sites (function
	// literals included: a deferred closure's Broadcast still runs).
	directSigs map[*FuncInfo][]sigPos
	// transSigs is the may-signal summary: the cond keys a function may
	// signal through any call chain.
	transSigs map[*FuncInfo]map[string]bool
}

func runCondCheck(prog *Program) []Finding {
	cc := &condState{
		prog:        prog,
		binds:       make(map[string]string),
		waitedPreds: make(map[string]map[string]bool),
		waitLoopAt:  make(map[string]string),
		directSigs:  make(map[*FuncInfo][]sigPos),
	}
	r := &reporter{analyzer: "condcheck"}
	cc.collectBindings()
	bares := cc.collectWaits(r)
	cc.checkBareWaits(bares, r)
	cc.checkWaitLockState(r)
	cc.computeSignalSummaries()
	cc.checkMissedWakeups(r)
	return r.out
}

// collectBindings learns the cond -> mutex association from
// sync.NewCond(&mu) and cond.L = &mu. Conflicting rebinds make the cond
// ambiguous and drop it from the lock-state checks.
func (cc *condState) collectBindings() {
	bind := func(condKey, mutexKey string) {
		if condKey == "" || mutexKey == "" {
			return
		}
		if prev, ok := cc.binds[condKey]; ok && prev != mutexKey {
			cc.binds[condKey] = ""
			return
		}
		cc.binds[condKey] = mutexKey
	}
	for _, fi := range cc.prog.funcs() {
		p := fi.Pkg
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				lhs, rhs := ast.Unparen(as.Lhs[i]), ast.Unparen(as.Rhs[i])
				if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) == 1 {
					if fn := funcObjOf(p, ast.Unparen(call.Fun)); fn != nil && isSync(fn, "NewCond") {
						bind(lockKeyOf(p, lhs), mutexOperandKey(p, call.Args[0]))
						continue
					}
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "L" && isSyncType(typeOf(p, sel.X), "Cond") {
					bind(lockKeyOf(p, sel.X), mutexOperandKey(p, rhs))
				}
			}
			return true
		})
	}
}

// mutexOperandKey resolves &mu (or a plain mutex-typed expression) to
// its lock key.
func mutexOperandKey(p *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if !isSyncType(typeOf(p, e), "Mutex", "RWMutex") {
		return ""
	}
	return lockKeyOf(p, e)
}

// collectWaits enumerates every Wait site: loop-enclosed waits
// contribute their loop condition's fields to the waited-predicate set;
// waits with no loop inside a function literal are reported here; bare
// waits at function top level are returned for the call-site check.
func (cc *condState) collectWaits(r *reporter) []bareWait {
	var bares []bareWait
	for _, fi := range cc.prog.funcs() {
		p := fi.Pkg
		parents := fi.parentMap()
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, op, ok := condOpOf(p, call)
			if !ok || op != "Wait" {
				return true
			}
			loop, inLit := enclosingLoop(parents, call)
			switch {
			case loop != nil:
				if forStmt, ok := loop.(*ast.ForStmt); ok && forStmt.Cond != nil {
					cc.recordPredicates(p, forStmt, key)
				}
			case inLit:
				r.at(p, call.Pos(), "Wait on %s outside a for loop; a wakeup is a hint, recheck the predicate in a loop", shortLockKey(key))
			default:
				bares = append(bares, bareWait{fi: fi, call: call, key: key})
			}
			return true
		})
	}
	return bares
}

// enclosingLoop walks up the parent chain from n to the nearest for or
// range statement, stopping at function-literal boundaries. inLit
// reports that a literal boundary was hit before any loop.
func enclosingLoop(parents map[ast.Node]ast.Node, n ast.Node) (loop ast.Stmt, inLit bool) {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch v := cur.(type) {
		case *ast.ForStmt:
			return v, false
		case *ast.RangeStmt:
			return v, false
		case *ast.FuncLit:
			return nil, true
		}
	}
	return nil, false
}

// recordPredicates adds every struct-field selector in the loop
// condition to the waited-predicate set for condKey.
func (cc *condState) recordPredicates(p *Package, loop *ast.ForStmt, condKey string) {
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fk := fieldKeyOf(p, sel)
		if fk == "" {
			return true
		}
		if cc.waitedPreds[fk] == nil {
			cc.waitedPreds[fk] = make(map[string]bool)
		}
		cc.waitedPreds[fk][condKey] = true
		if _, ok := cc.waitLoopAt[fk]; !ok {
			cc.waitLoopAt[fk] = posOf(p, loop.Pos())
		}
		return true
	})
}

// checkBareWaits applies the one-level relaxation: a function whose
// Wait has no local loop passes only when every one of its call sites
// is inside a loop.
func (cc *condState) checkBareWaits(bares []bareWait, r *reporter) {
	for _, bw := range bares {
		sites := 0
		for _, caller := range cc.prog.funcs() {
			parents := caller.parentMap()
			for _, cs := range caller.Calls {
				if !hasTarget(cs, bw.fi.Key) {
					continue
				}
				sites++
				if loop, _ := enclosingLoop(parents, cs.Call); loop == nil {
					r.at(caller.Pkg, cs.Call.Pos(), "%s calls %s, which Waits on %s, from outside a loop; the predicate is rechecked only when the call site loops",
						caller.Name, bw.fi.Name, shortLockKey(bw.key))
				}
			}
		}
		if sites == 0 {
			r.at(bw.fi.Pkg, bw.call.Pos(), "Wait on %s outside a for loop; a wakeup is a hint, recheck the predicate in a loop", shortLockKey(bw.key))
		}
	}
}

func hasTarget(cs *CallSite, key string) bool {
	for _, t := range cs.Targets {
		if t == key {
			return true
		}
	}
	return false
}

// checkWaitLockState replays each function through the lock walker and
// checks every Wait's mutex discipline: the bound mutex held, no other
// acquired mutex held across the sleep.
func (cc *condState) checkWaitLockState(r *reporter) {
	for _, fi := range cc.prog.funcs() {
		p := fi.Pkg
		w := newLockWalker(cc.prog, fi, nil)
		w.onCall = func(cs *CallSite, st *lockState, deferred bool) {
			if deferred {
				return
			}
			key, op, ok := condOpOf(p, cs.Call)
			if !ok || op != "Wait" {
				return
			}
			mk := cc.binds[key]
			if mk != "" {
				if _, held := st.held[mk]; !held {
					r.at(p, cs.Call.Pos(), "%s Waits on %s without holding %s, the cond's mutex; Wait's internal unlock panics or races",
						fi.Name, shortLockKey(key), shortLockKey(mk))
				}
			}
			for _, hk := range sortedKeys(st.held) {
				if hk == mk || st.held[hk] == lockEntry {
					continue
				}
				r.at(p, cs.Call.Pos(), "%s Waits on %s while holding %s; Wait releases only the cond's mutex, so %s stays held across the sleep (deadlock hazard)",
					fi.Name, shortLockKey(key), shortLockKey(hk), shortLockKey(hk))
			}
		}
		w.walkFrom(cc.prog.entryState(fi))
	}
}

// computeSignalSummaries gathers direct Signal/Broadcast sites and drives
// the may-signal sets to a fixed point over the call graph. Go-spawned
// calls count: waking a waiter from a goroutine the mutation just
// scheduled is the engine's normal shape.
func (cc *condState) computeSignalSummaries() {
	direct := make(map[*FuncInfo]map[string]bool)
	for _, fi := range cc.prog.funcs() {
		p := fi.Pkg
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := condOpOf(p, call); ok && op != "Wait" {
					cc.directSigs[fi] = append(cc.directSigs[fi], sigPos{pos: call.Pos(), key: key})
					if direct[fi] == nil {
						direct[fi] = make(map[string]bool)
					}
					direct[fi][key] = true
				}
			}
			return true
		})
	}
	cc.transSigs = maySets(cc.prog, direct, false)
}

// checkMissedWakeups reports predicate mutations with no reachable
// signal positioned after them.
func (cc *condState) checkMissedWakeups(r *reporter) {
	if len(cc.waitedPreds) == 0 {
		return
	}
	for _, fi := range cc.prog.funcs() {
		p := fi.Pkg
		fresh := freshLocals(p, fi.Decl)
		check := func(sel *ast.SelectorExpr, pos token.Pos) {
			fk := fieldKeyOf(p, sel)
			cks := cc.waitedPreds[fk]
			if len(cks) == 0 {
				return
			}
			if root := rootIdent(sel.X); root != nil && fresh[p.Info.Uses[root]] {
				return // freshly constructed, unshared: nobody waits yet
			}
			if cc.signalAfter(fi, pos, cks) || cc.callersDischarge(fi, cks) {
				return
			}
			r.at(p, pos, "%s mutates %s, rechecked by the Wait loop at %s, with no Signal/Broadcast after it (here or in every caller); waiters can miss the change and stall",
				fi.Name, shortLockKey(fk), cc.waitLoopAt[fk])
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						check(sel, lhs.Pos())
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(v.X).(*ast.SelectorExpr); ok {
					check(sel, v.Pos())
				}
			}
			return true
		})
	}
}

// signalAfter reports whether fi has a signal of any cond in cks
// positioned after pos: a direct Signal/Broadcast, or a call to a
// function whose may-signal set intersects cks.
func (cc *condState) signalAfter(fi *FuncInfo, pos token.Pos, cks map[string]bool) bool {
	for _, s := range cc.directSigs[fi] {
		if s.pos > pos && cks[s.key] {
			return true
		}
	}
	for _, cs := range fi.Calls {
		if cs.Call.Pos() <= pos {
			continue
		}
		for _, t := range cs.Targets {
			for k := range cc.transSigs[cc.prog.Funcs[t]] {
				if cks[k] {
					return true
				}
			}
		}
	}
	return false
}

// callersDischarge applies the one-level relaxation for helpers that
// mutate and return (lane.take and lane.put move busy; their callers
// broadcast): every call site of fi must be followed by a signal in its
// caller.
func (cc *condState) callersDischarge(fi *FuncInfo, cks map[string]bool) bool {
	sites := 0
	for _, caller := range cc.prog.funcs() {
		for _, cs := range caller.Calls {
			if !hasTarget(cs, fi.Key) {
				continue
			}
			sites++
			if !cc.signalAfter(caller, cs.Call.Pos(), cks) {
				return false
			}
		}
	}
	return sites > 0
}
