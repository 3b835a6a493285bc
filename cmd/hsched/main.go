// Command hsched analyses the schedulability of a hierarchical
// scheduling system: it loads a JSON system specification (or the
// paper's built-in example), runs the holistic analysis of Lorente,
// Lipari & Bini (IPDPS 2006) and prints per-task response-time bounds
// and the verdict.
//
// Usage:
//
//	hsched [-spec system.json] [-exact] [-static] [-tight] [-dump] [-sensitivity] [-workers n] [-cache]
//	hsched assign [-spec system.json] [-policy rm|dm|hopa|audsley] [-iterations n] [-exact] [-workers n] [-cache] [-delta]
//	hsched bench [-workload default|contended|exact-heavy|exact-search|assign] [-systems n] [-mutations n] [-queries n] [-goroutines n] [-shards n] [-capacity n] [-seed n] [-exact] [-util u] [-delta] [-json] [-compare base.json] [-remote URL] [-pipeline n] [-codec json|binary]
//	hsched serve [-addr host:port] [-shards n] [-cache n] [-delta] [-max-inflight n] [-max-sessions n] [-parse-memo n] [-workers n] [-drain d] [-pprof]
//
// The assign subcommand searches a local fixed-priority assignment
// (the paper leaves it to the component designer): the classical
// monotonic rankings, the HOPA heuristic, or an Audsley-style optimal
// search, with the holistic analysis as the oracle — routed through a
// memoised analysis service whose statistics -cache prints.
//
// The bench subcommand measures the memoised analysis service on a
// generated workload: admission-control mutation chains (default, or
// contended with 16 client goroutines), exact scenario sweeps
// (exact-heavy), or full priority-assignment searches with the
// approximate (assign) or exact (exact-search) oracle; it reports throughput, cache hit rate,
// incremental (delta) hit rate and p50/p99 query latency; -json emits
// a machine-readable report. With -remote URL the same workload is
// fired over HTTP at a running `hsched serve` instance instead of the
// in-process service (-pipeline n keeps n requests in flight per
// connection).
//
// The serve subcommand runs the HTTP/JSON analysis server of
// internal/httpd: POST /v1/analyze, /v1/assign and /v1/minimize over
// one shared memoised service, per-client probe sessions under
// /v1/session, per-request deadlines via X-Deadline-Ms, and GET
// /v1/stats. SIGTERM drains gracefully.
//
// Exit status is 0 when the system is schedulable (or the benchmark
// succeeded, or the server drained cleanly), 2 when the system is not
// schedulable, and 1 on errors.
package main

import (
	"os"

	"hsched/internal/cli"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "bench":
			os.Exit(cli.Bench(args[1:], os.Stdout, os.Stderr))
		case "assign":
			os.Exit(cli.Assign(args[1:], os.Stdout, os.Stderr))
		case "serve":
			os.Exit(cli.Serve(args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(cli.Analyze(args, os.Stdout, os.Stderr))
}
