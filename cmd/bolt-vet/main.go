// Command bolt-vet runs the BoLT-specific static-analysis suite
// (internal/boltvet) over the module:
//
//	barrierorder — MANIFEST commits not preceded by a data-file sync
//	lockorder    — double mutex acquisition through any call chain (a
//	               *Locked method starts with its guards held), and
//	               cycles in the lock-acquisition-order graph
//	errflow      — durability-barrier errors (Sync, SyncDir, LogAndApply,
//	               CommitPrepared, WriteFile, bare Close) discarded at the
//	               call or dying in a helper or wrap chain
//	guardedby    — //boltvet:guardedby field annotations checked against
//	               the lock-set analysis at every access site; an atomic
//	               annotation must sit on a sync/atomic type, whose copies
//	               go vet's copylocks reports
//	mustclose    — //boltvet:mustclose values tracked from creation to a
//	               Close, an ownership transfer, or a leak finding
//	golifetime   — every `go` statement tied to a declared lifecycle
//	               (//boltvet:goroutine <tracker>) or an inferred WaitGroup
//	               join; tracker clears and awaits proved through the call
//	               graph
//	condcheck    — sync.Cond protocol: Wait in a rechecking loop with the
//	               bound mutex held (and no second lock), Signal/Broadcast
//	               after every waited-predicate mutation
//	summary      — boltvet:ignore / ignore-begin hygiene (reasons, known
//	               analyzer names, balanced pairs)
//
// Usage:
//
//	go run ./cmd/bolt-vet ./...
//	go run ./cmd/bolt-vet -tests=false ./internal/core
//	go run ./cmd/bolt-vet -json ./... | jq .analyzer
//	go run ./cmd/bolt-vet -timing ./...          # per-analyzer wall time
//	go run ./cmd/bolt-vet -list -timing ./...    # listing with measured times
//	go run ./cmd/bolt-vet internal/boltvet/testdata/src/errflow   # vet fixtures on purpose
//
// Run it from the module root: package loading resolves module-internal
// imports relative to the working directory. Exit status: 0 clean, 1
// findings, 2 load failure. Suppress individual findings with
// `//boltvet:ignore <analyzer> -- reason`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/bolt-lsm/bolt/internal/boltvet"
)

// jsonFinding is the -json wire format: one object per line.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	tests := flag.Bool("tests", true, "also analyze *_test.go files")
	tags := flag.String("tags", "", "comma-separated extra build tags (e.g. boltinvariants)")
	typeErrs := flag.Bool("typeerrors", false, "print type-checking errors (analysis is best-effort under them)")
	list := flag.Bool("list", false, "list analyzers and exit (with -timing, run the suite and include wall times)")
	timing := flag.Bool("timing", false, "print a per-analyzer wall-time table after the findings")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	flag.Parse()

	if *list && !*timing {
		for _, a := range boltvet.All() {
			scope := "intraprocedural"
			if a.RunProgram != nil {
				scope = "interprocedural"
			}
			fmt.Printf("%-14s %-16s %s\n", a.Name, scope, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := boltvet.LoadConfig{Tests: *tests}
	if *tags != "" {
		cfg.BuildTags = strings.Split(*tags, ",")
	}
	pkgs, err := boltvet.Load(cfg, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bolt-vet:", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "bolt-vet: no packages matched", strings.Join(patterns, " "))
		os.Exit(2)
	}
	if *typeErrs {
		for _, p := range pkgs {
			for _, te := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "bolt-vet: typecheck %s: %v\n", p.ImportPath, te)
			}
		}
	}

	findings, timings := boltvet.RunAllTimed(pkgs, boltvet.All())

	if *list {
		// -list -timing: the analyzer listing, with measured wall time per
		// analyzer (the "(program)" row is the shared call-graph + summary
		// build the interprocedural analyzers amortize).
		wall := make(map[string]string, len(timings))
		for _, t := range timings {
			wall[t.Name] = t.Duration.Round(10 * time.Microsecond).String()
		}
		for _, a := range boltvet.All() {
			scope := "intraprocedural"
			if a.RunProgram != nil {
				scope = "interprocedural"
			}
			fmt.Printf("%-14s %-16s %10s  %s\n", a.Name, scope, wall[a.Name], a.Doc)
		}
		if w, ok := wall["(program)"]; ok {
			fmt.Printf("%-14s %-16s %10s  %s\n", "(program)", "shared",
				w, "call graph and function summaries shared by the interprocedural analyzers")
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		switch {
		case *jsonOut:
			if err := enc.Encode(jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "bolt-vet:", err)
				os.Exit(2)
			}
		case *github:
			// https://docs.github.com/actions/reference/workflow-commands:
			// property values use URL-style escapes for , : % and newlines.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=bolt-vet %s::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, escapeAnnotation(f.Message))
		default:
			fmt.Println(f.String())
		}
	}
	if *timing {
		printTimings(os.Stdout, timings)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bolt-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// printTimings writes the per-analyzer wall-time table -timing asks for.
func printTimings(w io.Writer, timings []boltvet.AnalyzerTiming) {
	fmt.Fprintf(w, "%-14s %10s %9s\n", "analyzer", "wall", "findings")
	var total time.Duration
	for _, t := range timings {
		total += t.Duration
		fmt.Fprintf(w, "%-14s %10s %9d\n", t.Name, t.Duration.Round(10*time.Microsecond), t.Findings)
	}
	fmt.Fprintf(w, "%-14s %10s\n", "total", total.Round(10*time.Microsecond))
}

// escapeAnnotation escapes a message for a GitHub workflow-command value.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
