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
	fn       string // function where observed
	where    string // file:line witness
	chain    []string
}

func runLockOrder(prog *Program) []Finding {
	var out []Finding
	seen := make(map[string]bool) // dedup: loop bodies walk twice
	report := func(p *Package, pos token.Pos, format string, args ...any) {
		f := Finding{Pos: p.Fset.Position(pos), Analyzer: "lockorder", Message: fmt.Sprintf(format, args...)}
		if !seen[f.String()] {
			seen[f.String()] = true
			out = append(out, f)
		}
	}

	edges := make(map[string]map[string]orderEdge)
	addEdge := func(e orderEdge) {
		if edges[e.from] == nil {
			edges[e.from] = make(map[string]orderEdge)
		}
		if _, ok := edges[e.from][e.to]; !ok {
			edges[e.from][e.to] = e
		}
	}

	for _, fi := range prog.sortedFuncs() {
		if fi.Decl == nil || funcInTestFile(fi) {
			continue
		}
		fi := fi
		w := newLockWalker(prog, fi, func(ev acqEvent) {
			if ev.deferred {
				return // runs at return time; the held snapshot is wrong
			}
			if mode, held := ev.held[ev.key]; held && !ev.calleeReleased[ev.key] {
				if !(mode == lockRead && ev.read) {
					report(fi.Pkg, ev.pos, "%s acquires %s while already holding it%s (self-deadlock)",
						fi.Name, shortLockKey(ev.key), chainSuffix(ev.chain))
				}
			}
			for held := range ev.held {
				if held == ev.key || ev.calleeReleased[held] {
					continue
				}
				addEdge(orderEdge{
					from:  held,
					to:    ev.key,
					fn:    fi.Name,
					where: posOf(fi.Pkg, ev.pos),
					chain: ev.chain,
				})
			}
		})
		w.walkFrom(prog.entryState(fi))
	}

	out = append(out, lockCycleFindings(prog, edges)...)
	return out
}

// lockCycleFindings finds strongly connected components of size >= 2 in
// the order graph and reports each once, with an edge witness per hop.
func lockCycleFindings(prog *Program, edges map[string]map[string]orderEdge) []Finding {
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

	var out []Finding
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
					shortLockKey(from), shortLockKey(to), e.fn, e.where))
			}
		}
		short := make([]string, len(scc))
		for i, k := range scc {
			short[i] = shortLockKey(k)
		}
		out = append(out, Finding{
			Pos:      findingPos(prog, first),
			Analyzer: "lockorder",
			Message: fmt.Sprintf("lock-order cycle among {%s}: %s (potential deadlock; pick one global order)",
				strings.Join(short, ", "), strings.Join(hops, "; ")),
		})
	}
	return out
}

// findingPos parses an edge witness back into a token.Position for the
// cycle report (witnesses are "file:line" strings).
func findingPos(prog *Program, e *orderEdge) token.Position {
	if e == nil {
		return token.Position{}
	}
	pos := token.Position{Filename: e.where}
	if i := strings.LastIndex(e.where, ":"); i >= 0 {
		pos.Filename = e.where[:i]
		fmt.Sscanf(e.where[i+1:], "%d", &pos.Line)
	}
	pos.Column = 1
	return pos
}

// chainSuffix renders a call-chain witness (" via a -> b") or "".
func chainSuffix(chain []string) string {
	if len(chain) == 0 {
		return ""
	}
	return " via " + strings.Join(chain, " -> ")
}

// funcInTestFile reports whether fi's declaration lives in a _test.go file.
func funcInTestFile(fi *FuncInfo) bool {
	return strings.HasSuffix(fi.Pkg.Fset.Position(fi.Decl.Pos()).Filename, "_test.go")
}
