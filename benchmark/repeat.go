package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runChild runs one workload in a process of its own — peak memory is a
// property of the process, so workloads must not share one — copies its
// output to w, and returns the parsed result line.
func runChild(w io.Writer, workload string, seed int64, seconds float64, trace int, dir string, smoke bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--dir", dir,
	}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(w, &out), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with quartiles as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method).
func quartileSpread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	quantile := func(q float64) float64 {
		pos := q * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return div(quantile(0.75)-quantile(0.25), median(s))
}

// compareSets returns how much worse the median of b is than that of a as
// a share of a's (negative when it is better), the larger quartile spread
// of the two, and whether the sets disagree: the medians differ by more
// than d's bound in either direction, or a spread exceeds it.
func compareSets(a, b []float64, d metricDef) (worse, spread float64, disagree bool) {
	worse = div(median(b)-median(a), median(a))
	if d.better == "higher" {
		worse = -worse
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	return worse, spread, math.Abs(worse) > d.bound || spread > d.bound
}

// repeatRuns is how many seeds a set of --check-repeat runs, as the
// driver's sets do.
const repeatRuns = 10

// checkRepeat applies the acceptance rule to the benchmark itself: two
// sets of runs of the same code, each run with another seed, must agree.
// For every workload and end-to-end metric it prints both medians, their
// relative difference (positive when the second is worse), the larger
// quartile spread of the two sets and the bound, and it fails if the
// medians differ by more than the bound in either direction or a spread
// exceeds it; such a row is followed by the values of both sets.
func checkRepeat(w io.Writer, seed int64, seconds float64, dir string) error {
	var outside int
	for _, wl := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < repeatRuns; i++ {
				res, err := runChild(io.Discard, wl.name, seed+int64(i), seconds, 0, dir, false)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s %6s\n", wl.name, "metric", "median 1", "median 2", "worse", "spread", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			worse, spread, disagree := compareSets(a, b, d)
			verdict := ""
			if disagree {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-12s %-16s %12.5g %12.5g %7.1f%% %7.1f%% %5.0f%%%s\n",
				"", d.name, median(a), median(b), 100*worse, 100*spread, 100*d.bound, verdict)
			if disagree {
				fmt.Fprintf(w, "%-12s set 1 %.5g\n%-12s set 2 %.5g\n", "", a, "", b)
			}
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", outside)
	}
	return nil
}
