// Command perfbench is the repository benchmark. It starts `hsched
// serve` as a child process, drives one named workload at it over
// loopback HTTP from two keep-alive connections in a closed loop,
// checks every answer against a cold in-process reference and prints
// the end-to-end metrics; with -trace 1 it runs the traced per-layer
// run instead. The last line of standard output is the result as one
// JSON object. See README.md; perfbench/run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload hit-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: hit-mix, admit-edit, exact-cold or assign-search")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		bin     = flag.String("hsched", "", "hsched binary to serve")
		out     = flag.String("out", "", "directory the traced run writes its span file to")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, bin, out string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if bin == "" {
		return fmt.Errorf("-hsched is required")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{w: w, seed: seed, seconds: seconds, start: processStarter(bin), setups: 5, traceDir: out}
	var rep *report
	switch traced {
	case 0:
		rep, err = runEndToEnd(cfg)
	case 1:
		rep, err = runTraced(cfg)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if rep != nil {
		fmt.Printf("workload %s, seed %d, %g s, trace %d\n", name, seed, seconds, traced)
		for _, line := range rep.lines {
			fmt.Println(line)
		}
		for _, phase := range []string{"warm-up", "measured", "untraced", "traced", "in-process warm-up", "in-process"} {
			if t, ok := rep.tallies[phase]; ok {
				fmt.Printf("phase %s: attempted %d, succeeded %d, failed %d\n", phase, t.attempted, t.succeeded(), t.failed)
			}
		}
		for _, e := range rep.errors {
			fmt.Println("failure:", e)
		}
		for _, m := range rep.metrics {
			fmt.Printf("%-40s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	if err != nil {
		return err
	}
	res, err := rep.result()
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}
