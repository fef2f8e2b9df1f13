package boltvet

// SummaryCheck is the summary engine's self-check pass: it keeps the
// directive surface honest. A `//boltvet:ignore` directive must name
// known analyzers and carry a ` -- <reason>` tail; a reasonless directive
// suppresses nothing (see ignoreNames) and is reported here, as is a
// directive naming an analyzer that does not exist (typically a typo that
// would otherwise silently fail to suppress). Block suppressions are held
// to the same bar: a `//boltvet:ignore-begin` without a reason, a begin
// with no matching `//boltvet:ignore-end`, and an end with no begin all
// suppress nothing and are reported. So is any `//boltvet:<verb>` outside
// the vocabulary (directiveVerbs): a misspelled guardedby, goroutine or
// mustclose would leave its field, spawn or type unchecked.
var SummaryCheck = &Analyzer{
	Name: "summary",
	Doc:  "reports boltvet:ignore/ignore-begin directives with no reason, unknown analyzer names, or unbalanced pairs",
}

// Run is attached in init: runSummaryCheck consults All() for the known
// analyzer names, and referencing it in the literal would form a
// package-initialization cycle.
func init() { SummaryCheck.Run = runSummaryCheck }

func runSummaryCheck(p *Package) []Finding {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	r := &reporter{analyzer: "summary"}
	for _, d := range p.directives().list {
		switch {
		case !directiveVerbs[d.verb]:
			r.at(p, d.pos, "unknown directive //boltvet:%s checks nothing; the verbs are ignore, ignore-begin, ignore-end, guardedby, goroutine and mustclose", d.verb)
		case d.verb == "ignore" && d.reason == "":
			r.at(p, d.pos, "boltvet:ignore without a reason suppresses nothing; write `//boltvet:ignore <analyzer> -- <why>`")
		case d.verb == "ignore" || (d.verb == "ignore-begin" && d.reason != ""):
			what := map[string]string{"ignore": "directive", "ignore-begin": "block"}[d.verb]
			for _, n := range d.args {
				if !known[n] {
					r.at(p, d.pos, "boltvet:%s names unknown analyzer %q; this %s does not suppress it", d.verb, n, what)
				}
			}
		}
	}
	ignoreBlocks(p, r)
	return r.out
}
