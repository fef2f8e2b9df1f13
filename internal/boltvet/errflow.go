package boltvet

import "strings"

// ErrFlow taint-tracks error values born at durability barriers
// (Sync/SyncDir/LogAndApply/CommitPrepared/WriteFile) through assignments,
// fmt.Errorf wraps, and helper returns, and reports every path where the
// taint dies before reaching a sink. Sinks are: a return statement (or a
// named error result), a store into a field/map/element (e.g. the roCause
// record), a call argument (panic, logging, append, ...), a comparison or
// other use in an expression, and a channel send.
//
// A barrier site is a direct barrier call or a call to any helper whose
// summary says it returns a barrier-born error. At either, a bare
// statement, a `_ =` discard, a defer or go statement, and a captured
// error that is never handled are findings; a helper's report carries the
// witness chain down to the barrier, since its name does not say
// "barrier". Close is a weak site: only a bare Close statement whose
// result is an error is reported (`_ = f.Close()` is a visible,
// reviewable best-effort choice), and a returned Close error does not make
// the function's own error barrier-born.
//
// Test files are exempt: they run on the in-memory filesystem and discard
// errors on purpose; the bgerror recovery tests are the runtime twin of
// this analyzer.
var ErrFlow = &Analyzer{
	Name:       "errflow",
	Doc:        "reports barrier errors (Sync/SyncDir/LogAndApply/CommitPrepared/WriteFile, bare Close) discarded at the call or dying in a helper or wrap chain",
	RunProgram: runErrFlow,
}

func runErrFlow(prog *Program) []Finding {
	r := &reporter{analyzer: "errflow"}
	for _, fi := range prog.funcs() {
		p := fi.Pkg
		for _, src := range analyzeErrFlow(prog, fi) {
			what, chain := src.name, strings.Join(src.chain, " -> ")
			carries := "it carries a durability-barrier error (" + chain + ")"
			if src.direct {
				what, carries = exprString(src.call.Fun), "it is a durability barrier"
			}
			pos := src.call.Pos()
			switch {
			case src.weak:
				if src.discarded == "stmt" {
					r.at(p, pos, "result of %s is discarded; handle the error, or mark a best-effort close explicit with `_ =`", what)
				}
			case src.discarded == "stmt":
				r.at(p, pos, "result of %s is discarded, but %s", what, carries)
			case src.discarded == "underscore":
				r.at(p, pos, "error from %s is discarded via _, but %s; handle it or suppress with a reason at this site", what, carries)
			case src.discarded == "defer":
				r.at(p, pos, "error from deferred %s is discarded; %s", what, carries)
			case src.discarded == "go":
				r.at(p, pos, "error from %s spawned in a goroutine is discarded; %s", what, carries)
			case src.consumed:
			case src.direct && src.mentioned:
				r.at(p, pos, "error from %s is copied or wrapped but never handled; the barrier error dies in %s", src.name, fi.Name)
			case src.direct:
				r.at(p, pos, "error from %s is assigned but never used; the barrier error dies in %s", what, fi.Name)
			default:
				r.at(p, pos, "error from %s is captured but never handled; the barrier error (%s) dies in %s", src.name, chain, fi.Name)
			}
		}
	}
	return r.out
}
