// Command bolt-bench regenerates the paper's figures on the simulated-SSD
// substrate. The data series go to stdout — JSON rows for the count
// series, text tables for the timed figures — and progress to stderr.
//
// Usage:
//
//	bolt-bench -list
//	bolt-bench -experiment counts -scale small > FIGURES.json
//	bolt-bench -experiment fig13 [-scale small|medium|large]
//	bolt-bench -experiment all -scale medium
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/bolt-lsm/bolt/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bolt-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "all", "experiment id (counts, fig4, fig6, fig12a, fig12b, fig13, fig14, fig15, fig16, ext-rocksbolt) or 'all'")
		scaleName  = flag.String("scale", "medium", "experiment scale: small | medium | large")
		list       = flag.Bool("list", false, "list experiments and exit")
		statsEvery = flag.Duration("stats-every", 0, "print an engine stats line to stderr at this interval while a database is open (0 disables)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-13s %s\n", e.ID, e.Title)
		}
		return nil
	}
	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	params := bench.Params{Scale: scale, Out: os.Stdout, StatsEvery: *statsEvery}

	var todo []bench.Experiment
	if *experiment == "all" {
		todo = bench.Experiments()
	} else {
		e, ok := bench.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
		}
		todo = []bench.Experiment{e}
	}
	for _, e := range todo {
		fmt.Fprintf(os.Stderr, "=== %s: %s\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(params); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(os.Stderr, "=== %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
