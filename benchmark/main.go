// Command benchmark is the repository's benchmark: six YCSB-shaped
// workloads against the BoLT engine, end-to-end metrics from an untraced
// pass and per-layer metrics from a traced one. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload to run (see --list)")
		seed    = flag.Int64("seed", 1, "seed of the generated operations")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 adds a traced pass after the untraced one and prints the per-layer metrics instead of the end-to-end ones")
		dir     = flag.String("dir", ".bench_build/run", "directory for databases and trace files")
		smoke   = flag.Bool("smoke", false, "run at 1/100 size (for tests; the numbers mean nothing)")
		list    = flag.Bool("list", false, "print the workloads and metrics and exit")
		all     = flag.Bool("all", false, "run every workload, each in its own process")
		repeat  = flag.Bool("check-repeat", false, "run every workload with ten seeds, twice, and fail if the two sets disagree by more than a metric's bound")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
		return nil
	case *repeat:
		return checkRepeat(os.Stdout, *seed, *seconds, *dir)
	case *all:
		for _, w := range workloads {
			if _, err := runChild(os.Stdout, w.name, *seed, *seconds, *trace, *dir, *smoke); err != nil {
				return err
			}
		}
		return nil
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see --list)", *name)
	}
	res, err := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, dir: *dir, smoke: *smoke}, *trace != 0)
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
	}
	return nil
}
