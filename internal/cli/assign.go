package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"hsched/internal/analysis"
	"hsched/internal/sched"
	"hsched/internal/service"
)

// Assign implements `hsched assign`: load a system, run one
// priority-assignment policy (rm, dm, hopa or audsley), print the
// installed per-task priorities with their response-time bounds, and
// report whether the assignment is schedulable. The search policies
// probe the holistic analysis through a probe session on a memoised
// analysis service; -cache prints the service's statistics line (the
// same shape `hsched -cache` prints), showing how much of the probe
// traffic the memo and the incremental path absorbed. Exit codes: 0
// schedulable, 2 unschedulable, 1 error.
func Assign(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hsched assign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath   = fs.String("spec", "", "JSON system specification (default: built-in paper example)")
		policy     = fs.String("policy", "audsley", "assignment policy: rm, dm, hopa or audsley")
		iterations = fs.Int("iterations", 0, "HOPA deadline-redistribution rounds (0 = default)")
		exact      = fs.Bool("exact", false, "use the exact scenario enumeration as the oracle")
		workers    = fs.Int("workers", 0, "per-round response-time workers (0 = all CPUs; results are identical)")
		cache      = fs.Bool("cache", false, "print the oracle service's cache statistics line")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	sys, err := loadSystem(*specPath, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "hsched assign:", err)
		return 1
	}

	opt := analysis.Options{Exact: *exact, Workers: *workers}
	// The search is sequential, so a single shard is enough.
	svc := service.New(service.Options{Shards: 1, Analysis: opt})

	res, ok, err := sched.Assign(context.Background(), sys, sched.Policy(*policy), sched.AssignOptions{
		Analysis:   opt,
		Iterations: *iterations,
		Service:    svc,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hsched assign:", err)
		return 1
	}

	fmt.Fprintf(stdout, "policy: %s\n", *policy)
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "task\tplatform\tpriority\tR\tdeadline\tverdict")
	for i := range res.Tasks {
		tr := &res.System.Transactions[i]
		for j, tb := range res.Tasks[i] {
			verdict := ""
			if j == len(res.Tasks[i])-1 {
				verdict = verdictLabel(res, i)
			}
			fmt.Fprintf(w, "%s\tPi%d\t%d\t%.3f\t%.3f\t%s\n",
				res.System.TaskName(i, j), tr.Tasks[j].Platform+1,
				tr.Tasks[j].Priority, tb.Worst, tr.Deadline, verdict)
		}
	}
	w.Flush()
	fmt.Fprintf(stdout, "schedulable: %v\n", ok)
	if *cache {
		printCacheStats(stdout, svc.Stats())
	}
	if !ok {
		return 2
	}
	return 0
}
