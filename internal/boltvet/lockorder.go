package boltvet

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder is the interprocedural deadlock analyzer. Using the summary
// engine it reports:
//
//  1. Double acquisition: a path that acquires a non-reentrant mutex it
//     already holds, through any call chain (sync.Mutex and sync.RWMutex
//     self-deadlock; only RLock-under-RLock is tolerated, though even that
//     can deadlock against a queued writer — the -race/stress tier owns
//     that case). A *Locked method is walked from the entry state, so
//     acquiring — directly or through a callee — a mutex its name
//     declares held is the same finding.
//  2. Lock-order cycles: the global acquired-while-holding graph (edge
//     A→B when some path acquires B while holding A) must stay acyclic;
//     a cycle is a potential cross-goroutine deadlock.
//
// A callee that releases a lock before re-acquiring it (the engine's
// logAndApplyLocked unlock-then-relock pattern) contributes neither a
// double-acquisition nor an order edge for that lock: the summary's
// releasedBefore set filters both.
//
// Functions declared in _test.go files are skipped: tests exercise locks
// under the runtime race tier, and fixture-style helpers would pollute the
// global order graph.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "reports double mutex acquisition through any call chain and cycles in the lock-acquisition-order graph",
	RunProgram: runLockOrder,
}

// orderEdge is one observed "acquired to while holding from" pair.
type orderEdge struct {
	from, to string
	fn       *FuncInfo // function where observed
	pos      token.Pos
}

func runLockOrder(prog *Program) []Finding {
	// Loop bodies walk twice; RunAll drops the duplicate findings.
	r := &reporter{analyzer: "lockorder"}

	edges := make(map[string]map[string]orderEdge)
	addEdge := func(e orderEdge) {
		if edges[e.from] == nil {
			edges[e.from] = make(map[string]orderEdge)
		}
		if _, ok := edges[e.from][e.to]; !ok {
			edges[e.from][e.to] = e
		}
	}

	for _, fi := range prog.funcs() {
		w := newLockWalker(prog, fi, func(ev acqEvent) {
			if ev.deferred {
				return // runs at return time; the held snapshot is wrong
			}
			if mode, held := ev.held[ev.key]; held && !ev.calleeReleased[ev.key] {
				if !(mode == lockRead && ev.read) {
					r.at(fi.Pkg, ev.pos, "%s acquires %s while already holding it%s (self-deadlock)",
						fi.Name, shortLockKey(ev.key), chainSuffix(ev.chain))
				}
			}
			for held := range ev.held {
				if held == ev.key || ev.calleeReleased[held] {
					continue
				}
				addEdge(orderEdge{from: held, to: ev.key, fn: fi, pos: ev.pos})
			}
		})
		w.walkFrom(prog.entryState(fi))
	}

	lockCycleFindings(edges, r)
	return r.out
}

// lockCycleFindings finds strongly connected components of size >= 2 in
// the order graph and reports each once, with an edge witness per hop.
func lockCycleFindings(edges map[string]map[string]orderEdge, r *reporter) {
	// Tarjan's SCC over the (small) lock-key graph.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	nodes := sortedKeys(edges)
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(edges[v]) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) >= 2 {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, scc := range sccs {
		inSCC := make(map[string]bool, len(scc))
		for _, k := range scc {
			inSCC[k] = true
		}
		var hops []string
		var first *orderEdge
		for _, from := range scc {
			for _, to := range sortedKeys(edges[from]) {
				if !inSCC[to] {
					continue
				}
				e := edges[from][to]
				if first == nil {
					e := e
					first = &e
				}
				hops = append(hops, fmt.Sprintf("%s->%s in %s (%s)",
					shortLockKey(from), shortLockKey(to), e.fn.Name, posOf(e.fn.Pkg, e.pos)))
			}
		}
		short := make([]string, len(scc))
		for i, k := range scc {
			short[i] = shortLockKey(k)
		}
		r.at(first.fn.Pkg, first.pos, "lock-order cycle among {%s}: %s (potential deadlock; pick one global order)",
			strings.Join(short, ", "), strings.Join(hops, "; "))
	}
}

// chainSuffix renders a call-chain witness (" via a -> b") or "".
func chainSuffix(chain []string) string {
	if len(chain) == 0 {
		return ""
	}
	return " via " + strings.Join(chain, " -> ")
}
