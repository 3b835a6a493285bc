package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/httpd"
	"hsched/internal/service"
)

// Serve implements `hsched serve`: the HTTP/JSON analysis server of
// internal/httpd over one shared analysis service. The process runs
// until SIGTERM or SIGINT, then drains gracefully — the listener
// closes, in-flight analyses finish or hit their per-request
// deadlines, and a final stats line is flushed to stderr. Exit codes:
// 0 after a clean drain, 1 on startup or drain errors.
func Serve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hsched serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		shards      = fs.Int("shards", 0, "stripes of the service, each running at most one analysis at a time (0 = all CPUs)")
		cache       = fs.Int("cache", 0, "verdict-memo and intern-pool capacity in entries (0 = default)")
		maxInflight = fs.Int("max-inflight", 0, "concurrent analyses beyond which requests are shed with a 429 (0 = unbounded)")
		maxSessions = fs.Int("max-sessions", 0, "probe sessions kept before eviction of sessions not used recently (0 = default 1024)")
		workers     = fs.Int("workers", 1, "default per-analysis worker bound; requests may override (0 = all CPUs)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown bound for in-flight requests")
		pprofFlag   = fs.Bool("pprof", false, "expose /debug/pprof and enable mutex/block profiling at a low sample rate")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *pprofFlag {
		// Low-rate contention profiling: 1 in 100 mutex contention
		// events and blocking events ≥ 1 ms are cheap enough to leave
		// on in production, and enough signal to diagnose a stripe or
		// engine-lock regression with `go tool pprof
		// http://.../debug/pprof/mutex` (or /block).
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond.Nanoseconds()))
	}

	defOpt := analysis.Options{Workers: *workers}
	svc := service.New(service.Options{
		Shards:   *shards,
		Capacity: *cache,
		Analysis: defOpt,
	})
	srv := httpd.New(httpd.Options{
		Service:      svc,
		Analysis:     defOpt,
		MaxInflight:  *maxInflight,
		MaxSessions:  *maxSessions,
		DrainTimeout: *drain,
		Pprof:        *pprofFlag,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "hsched serve:", err)
		return 1
	}
	// The resolved address line is the startup contract: scripts (and
	// the tests) bind port 0 and read the port back from here.
	fmt.Fprintf(stdout, "hsched serve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := srv.Serve(ctx, ln, stderr); err != nil {
		fmt.Fprintln(stderr, "hsched serve:", err)
		return 1
	}
	return 0
}
