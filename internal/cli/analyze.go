// Package cli implements the command-line tools (cmd/hsched, cmd/hsim,
// cmd/hsgen, cmd/hsexper) as testable functions: each command takes
// its argument list and output writers and returns a process exit
// code.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/model"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// loadSystem reads a JSON specification, or returns the built-in paper
// example when path is empty.
func loadSystem(path string, out io.Writer) (*model.System, error) {
	if path == "" {
		fmt.Fprintln(out, "no -spec given: using the built-in paper example (Tables 1-2)")
		return experiments.PaperSystem(), nil
	}
	return spec.Load(path)
}

// Analyze implements cmd/hsched: load a system, run the holistic (or
// static) analysis, print per-task bounds and the verdict. Exit codes:
// 0 schedulable, 2 unschedulable, 1 error.
func Analyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath    = fs.String("spec", "", "JSON system specification (default: built-in paper example)")
		exact       = fs.Bool("exact", false, "use the exact scenario enumeration of Sec. 3.1.1")
		static      = fs.Bool("static", false, "single static-offset pass (Sec. 3.1) with the offsets/jitters in the spec")
		tight       = fs.Bool("tight", false, "use the per-run burstiness refinement of the best-case bounds")
		dump        = fs.Bool("dump", false, "dump the system back as JSON and exit")
		sensitivity = fs.Bool("sensitivity", false, "also report the critical WCET scaling factor")
		workers     = fs.Int("workers", 0, "per-round response-time workers (0 = all CPUs, 1 = sequential; results are identical)")
		cache       = fs.Bool("cache", false, "route the analysis through a memoised analysis service and print cache statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	sys, err := loadSystem(*specPath, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "hsched:", err)
		return 1
	}
	if *dump {
		data, err := spec.Marshal(sys)
		if err != nil {
			fmt.Fprintln(stderr, "hsched:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}

	opt := analysis.Options{Exact: *exact, TightBestCase: *tight, Workers: *workers}
	var res *analysis.Result
	var svc *service.Service
	if *cache {
		// The service front-end: one-shot here, but the same path an
		// embedding admission controller uses. (-sensitivity's probes
		// run their own engine and are not counted in the stats line.)
		svc = service.New(service.Options{Analysis: opt})
		if *static {
			res, err = svc.AnalyzeStatic(context.Background(), sys)
		} else {
			res, err = svc.Analyze(context.Background(), sys)
		}
	} else {
		eng := analysis.NewEngine(opt)
		if *static {
			res, err = eng.AnalyzeStatic(sys)
		} else {
			res, err = eng.Analyze(sys)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "hsched:", err)
		return 1
	}

	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "task\tplatform\tphi\tJ\tRbest\tR\tdeadline\tverdict")
	for i := range res.Tasks {
		tr := &res.System.Transactions[i]
		for j, tb := range res.Tasks[i] {
			verdict := ""
			if j == len(res.Tasks[i])-1 {
				verdict = verdictLabel(res, i)
			}
			fmt.Fprintf(w, "%s\tPi%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
				res.System.TaskName(i, j), tr.Tasks[j].Platform+1,
				tb.Offset, tb.Jitter, tb.Best, tb.Worst, tr.Deadline, verdict)
		}
	}
	w.Flush()
	fmt.Fprintf(stdout, "iterations: %d  converged: %v  schedulable: %v",
		res.Iterations, res.Converged, res.Schedulable)
	if *exact {
		// The branch-and-bound work profile of the exact sweep; only
		// meaningful when the exact enumeration actually ran.
		fmt.Fprintf(stdout, "  scenarios-pruned: %d  subtrees-pruned: %d", res.ScenariosPruned, res.SubtreesPruned)
	}
	fmt.Fprintln(stdout)

	if *sensitivity {
		k, err := analysis.CriticalScaling(sys, opt, 1e-3, 0)
		if err != nil {
			fmt.Fprintln(stderr, "hsched:", err)
			return 1
		}
		fmt.Fprintf(stdout, "critical WCET scaling factor: %.3f\n", k)
	}
	if svc != nil {
		printCacheStats(stdout, svc.Stats())
	}
	if !res.Schedulable {
		return 2
	}
	return 0
}

// verdictLabel names what res proves about transaction i: "ok" (meets
// its deadline), "MISS" (misses it; final even before the fixed point,
// since responses never decrease) or "unproven" (the run stopped, was
// cut or exited on an unbounded response before the bound was final).
func verdictLabel(res *analysis.Result, i int) string {
	switch {
	case res.MeetsDeadline(i):
		return "ok"
	case res.Misses(i):
		return "MISS"
	}
	return "unproven"
}

// printCacheStats renders one service-stats line, shared by the
// analyze, exper and bench commands.
func printCacheStats(out io.Writer, st service.Stats) {
	fmt.Fprintf(out, "cache: queries=%d hits=%d misses=%d evictions=%d inflight-dedups=%d delta-hits=%d rounds-saved=%d scenarios-pruned=%d subtrees-pruned=%d interference-evals=%d intern-hits=%d intern-misses=%d intern-resident=%d hit-rate=%.1f%%\n",
		st.Queries, st.Hits, st.Misses, st.Evictions, st.InflightDedups, st.DeltaHits, st.RoundsSaved, st.ScenariosPruned, st.SubtreesPruned, st.InterferenceEvals, st.InternHits, st.InternMisses, st.Resident, 100*st.HitRate())
}
