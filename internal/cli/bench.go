package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/httpd"
	"hsched/internal/model"
	"hsched/internal/sched"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// benchReport is the machine-readable form of a bench run, emitted by
// -json so the performance trajectory can be tracked across commits
// (CI uploads it as an artifact and gates on -compare). BENCH_seed.json
// at the repository root holds one report per workload preset — the
// committed baseline the CI regression gate compares against.
type benchReport struct {
	Workload  string `json:"workload"`
	Remote    string `json:"remote,omitempty"`
	Systems   int    `json:"systems"`
	Mutations int    `json:"mutations"`
	Queries   int    `json:"queries"`
	// Goroutines and GOMAXPROCS together make a baseline
	// self-describing: contended presets are only comparable when both
	// the client parallelism and the scheduler width match the
	// recording (the committed contended baseline is GOMAXPROCS=4,
	// goroutines 16).
	Goroutines int     `json:"goroutines"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Exact      bool    `json:"exact"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Throughput float64 `json:"throughput_qps"`
	Latency    struct {
		P50us float64 `json:"p50_us"`
		P90us float64 `json:"p90_us"`
		P99us float64 `json:"p99_us"`
		MaxUs float64 `json:"max_us"`
	} `json:"latency"`
	// Cache inlines service.Stats — the json tags of the two are one
	// wire contract, asserted by the service's round-trip tests.
	Cache struct {
		service.Stats
		HitRate      float64 `json:"hit_rate"`
		DeltaHitRate float64 `json:"delta_hit_rate"`
	} `json:"cache"`
}

// regressionTolerance is the fraction of baseline throughput a -compare
// run must reach: below 75% the gate reports a regression and the
// command exits non-zero.
const regressionTolerance = 0.75

// Bench implements `hsched bench`: a service-throughput benchmark over
// a generated workload. It draws a population of random base systems,
// extends each into a chain of single-transaction mutations (the
// admission-control traffic shape), fires a stream of queries at one
// shared analysis service from many goroutines (queries round-robin
// over the population, so the steady-state hit rate is high), and
// reports throughput, cache hit rate, delta hit rate and p50/p99
// latency — humanly, or as JSON with -json.
//
// Five workload presets exist: "default" exercises the memo with the
// approximate analysis on multi-platform chains; "contended" is the
// same population driven from more goroutines than processors (16
// by default; record and compare it at GOMAXPROCS=4), so the
// almost-always-hit traffic measures the memo's serialisation
// points — stripe locks, CLOCK touches, counters — rather than
// analysis work; "exact-heavy" routes single-platform, high-interference systems
// through the exact scenario sweep — the streamed, pruned
// branch-and-bound hot path — and reports the scenarios and subtrees
// the admissible bounds refuted; "exact-search" runs one exact-oracle
// Audsley search per query, probe chains of exact analyses served by
// the session-pinned incremental path and the memo;
// "assign" runs one full Audsley priority-assignment search per query
// against the shared service, the probe-chain traffic of the sched
// layer (every probe one priority move apart, served by the session-
// pinned incremental path and the memo). -compare FILE checks the
// measured throughput against a recorded baseline (BENCH_seed.json,
// or a previous -json report) and fails on a >25% regression. Exit
// codes: 0 success, 1 error or regression.
//
// -remote URL switches to client mode: the same workload is
// serialised once and fired over keep-alive HTTP at a running
// `hsched serve` instance; the report's cache block is then the
// server-side counter delta and the baseline key becomes "serve"
// (or "serve-<preset>"), since wire-bound throughput gates against
// its own baseline. -pipeline n keeps up to n requests in flight per
// connection (HTTP/1.1 pipelining), which amortises the per-round-trip
// syscall cost on loopback; latencies then include the queueing the
// window introduces.
func Bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hsched bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "default", "workload preset: default (approximate admission-control chains), contended (default population, 16 goroutines, hit-path contention), exact-heavy (exact scenario sweeps), exact-search (exact-oracle priority searches) or assign (priority-assignment searches)")
		systems    = fs.Int("systems", 64, "distinct random base systems in the workload population")
		mutations  = fs.Int("mutations", 4, "single-transaction mutations chained onto each base system")
		queries    = fs.Int("queries", 4096, "total queries to issue")
		goroutines = fs.Int("goroutines", 0, "concurrent client goroutines (0 = all CPUs)")
		shards     = fs.Int("shards", 0, "stripes of the service, each running at most one analysis at a time (0 = all CPUs)")
		capacity   = fs.Int("capacity", 0, "verdict-memo and intern-pool capacity in entries (0 = default)")
		seed       = fs.Int64("seed", 1, "workload generator seed")
		exact      = fs.Bool("exact", false, "use the exact analysis for the workload")
		util       = fs.Float64("util", 0.45, "per-platform utilisation of the generated systems")
		jsonOut    = fs.Bool("json", false, "emit a machine-readable JSON report instead of text")
		compare    = fs.String("compare", "", "baseline report file; exit non-zero when throughput regresses >25% against the matching workload entry")
		remote     = fs.String("remote", "", "benchmark a running `hsched serve` instance at this base URL instead of the in-process service")
		pipeline   = fs.Int("pipeline", 1, "remote mode: requests in flight per connection (HTTP/1.1 pipelining; latencies then include pipeline queueing)")
		codec      = fs.String("codec", "json", "remote request encoding: json, or binary for the canonical wire format (zero-decode intern hits on the server)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	switch *codec {
	case "json", "binary":
	default:
		fmt.Fprintf(stderr, "hsched bench: unknown -codec %q (want json or binary)\n", *codec)
		return 1
	}
	if *codec == "binary" && *remote == "" {
		fmt.Fprintln(stderr, "hsched bench: -codec binary requires -remote (the in-process service takes no wire bytes)")
		return 1
	}
	if *codec == "binary" && (*workload == "assign" || *workload == "exact-search") {
		fmt.Fprintf(stderr, "hsched bench: -codec binary does not apply to the %s workload (/v1/assign speaks JSON only)\n", *workload)
		return 1
	}

	// Preset defaults: flags the user set explicitly always win.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *workload {
	case "default":
	case "contended":
		// The default admission-control population driven from more
		// client goroutines than processors (16 at the recorded
		// GOMAXPROCS=4): nearly every query is a memo hit, so what the
		// preset measures is the hit path's serialisation — stripe
		// mutexes, CLOCK touches, atomic counters — not analysis work.
		if !explicit["goroutines"] {
			*goroutines = 16
		}
	case "exact-heavy":
		// Fewer, hotter systems: every miss is a full exact sweep, so
		// the population stays small and the interesting signal is the
		// cold-path latency and the pruned-scenario count.
		if !explicit["exact"] {
			*exact = true
		}
		if !explicit["systems"] {
			*systems = 8
		}
		if !explicit["mutations"] {
			*mutations = 2
		}
		if !explicit["queries"] {
			// Enough queries that the tail quantiles rest on dozens of
			// samples (256 put p99 on ~3), while the population keeps
			// every ~16th query a cold exact sweep.
			*queries = 2048
		}
		if !explicit["util"] {
			*util = 0.5
		}
	case "exact-search":
		// One whole exact-oracle Audsley search per query: tens of
		// probes each one priority move apart, every miss an exact
		// branch-and-bound sweep. Systems stay small — the cost per
		// query is the search, not the single sweep.
		if !explicit["exact"] {
			*exact = true
		}
		if !explicit["systems"] {
			*systems = 4
		}
		if !explicit["mutations"] {
			*mutations = 1
		}
		if !explicit["queries"] {
			*queries = 16
		}
		if !explicit["util"] {
			*util = 0.5
		}
	case "assign":
		// Each query is a whole Audsley search (tens of oracle probes),
		// so far fewer queries saturate the interesting machinery: the
		// per-search probe sessions and the shared memo that answers
		// re-searched population members outright.
		if !explicit["systems"] {
			*systems = 16
		}
		if !explicit["mutations"] {
			*mutations = 2
		}
		if !explicit["queries"] {
			*queries = 64
		}
	default:
		fmt.Fprintf(stderr, "hsched bench: unknown -workload %q (want default, contended, exact-heavy, exact-search or assign)\n", *workload)
		return 1
	}
	if *systems <= 0 || *queries <= 0 || *mutations < 0 {
		fmt.Fprintln(stderr, "hsched bench: -systems and -queries must be positive, -mutations non-negative")
		return 1
	}

	// Population: each base system plus a chain of cumulative
	// single-transaction retunings — consecutive chain elements are one
	// parameter apart.
	pop := make([]*model.System, 0, *systems*(*mutations+1))
	for k := 0; k < *systems; k++ {
		cfg := gen.Config{
			Seed: *seed + int64(k), Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 400, Utilization: *util,
			AlphaMin: 0.4, AlphaMax: 0.9,
		}
		if *workload == "exact-heavy" || *workload == "exact-search" {
			// One platform maximises same-platform interference — the
			// regime where the exact scenario product of Eq. 12 grows —
			// and random priorities break the rate-monotonic nesting
			// that keeps the candidate sets small.
			cfg.Platforms = 1
			cfg.ChainLen = 4
			cfg.AlphaMin, cfg.AlphaMax = 0.5, 0.9
			cfg.RandomPriorities = true
			if *workload == "exact-search" {
				// The search multiplies every system by tens of exact
				// probes; a shorter chain keeps one query in the tens of
				// milliseconds.
				cfg.ChainLen = 3
			}
		}
		sys, err := gen.System(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "hsched bench:", err)
			return 1
		}
		pop = append(pop, sys)
		for c := 1; c <= *mutations; c++ {
			mut := sys.Clone()
			tr := &mut.Transactions[c%len(mut.Transactions)]
			tr.Tasks[c%len(tr.Tasks)].WCET *= 1.0 + 0.02*float64(c)
			pop = append(pop, mut)
			sys = mut
		}
	}

	clients := *goroutines
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
	}

	// query issues one benchmark query; finalStats snapshots the
	// service counters the run accumulated (remotely: the server-side
	// counter delta over the run). Remote runs time their own queries
	// (a pipelined response completes on a later query call than the
	// one that wrote its request) and drain pending responses through
	// flush.
	latencies := make([]time.Duration, *queries)
	var (
		query      func(ctx context.Context, k int) error
		flush      func() error
		finalStats func() (service.Stats, error)
	)
	if *remote != "" {
		rec := func(k int, d time.Duration) { latencies[k] = d }
		q, fl, fin, err := remoteQuerier(*remote, *workload, *codec, *exact, clients, *pipeline, pop, rec)
		if err != nil {
			fmt.Fprintln(stderr, "hsched bench:", err)
			return 1
		}
		query, flush, finalStats = q, fl, fin
	} else {
		svc := service.New(service.Options{
			Shards:   *shards,
			Capacity: *capacity,
			Analysis: analysis.Options{Exact: *exact, StopAtDeadlineMiss: true, Workers: 1},
		})
		// One query is one service call — except on the assign
		// workload, where it is one whole priority-assignment search
		// probing the shared service through its own session (the
		// population member is cloned: the search overwrites
		// priorities in place).
		query = func(ctx context.Context, k int) error {
			_, err := svc.Analyze(ctx, pop[k%len(pop)])
			return err
		}
		if *workload == "assign" || *workload == "exact-search" {
			assignOpt := analysis.Options{Exact: *exact, Workers: 1}
			query = func(ctx context.Context, k int) error {
				sys := pop[k%len(pop)].Clone()
				_, _, err := sched.Assign(ctx, sys, sched.PolicyAudsley, sched.AssignOptions{
					Analysis: assignOpt,
					Service:  svc,
				})
				return err
			}
		}
		finalStats = func() (service.Stats, error) { return svc.Stats(), nil }
	}
	ctx := context.Background()
	var (
		next     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= *queries || firstErr.Load() != nil {
					return
				}
				t0 := time.Now()
				err := query(ctx, k)
				if flush == nil {
					// Remote queries time themselves (see rec).
					latencies[k] = time.Since(t0)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if flush != nil {
		if err := flush(); err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
	}
	elapsed := time.Since(start)
	if err := firstErr.Load(); err != nil {
		fmt.Fprintln(stderr, "hsched bench:", err)
		return 1
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) time.Duration {
		idx := int(q * float64(len(latencies)-1))
		return latencies[idx]
	}
	st, err := finalStats()
	if err != nil {
		fmt.Fprintln(stderr, "hsched bench:", err)
		return 1
	}

	rep := benchReport{
		Workload: *workload, Remote: *remote,
		Systems: *systems, Mutations: *mutations, Queries: *queries,
		Goroutines: clients, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Exact:      *exact,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
		Throughput: float64(*queries) / elapsed.Seconds(),
	}
	if *remote != "" {
		// Remote runs gate against their own baseline key: the wire
		// round-trip dominates, so comparing them to the in-process
		// numbers would always read as a regression.
		rep.Workload = remoteWorkloadName(*workload, *codec)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	rep.Latency.P50us = us(quantile(0.50))
	rep.Latency.P90us = us(quantile(0.90))
	rep.Latency.P99us = us(quantile(0.99))
	rep.Latency.MaxUs = us(latencies[len(latencies)-1])
	rep.Cache.Stats = st
	rep.Cache.HitRate = st.HitRate()
	if st.Misses > 0 {
		rep.Cache.DeltaHitRate = float64(st.DeltaHits) / float64(st.Misses)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "hsched bench:", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "workload: %s — %d systems x %d mutation chain, %d queries, %d goroutines, exact=%v\n",
			rep.Workload, *systems, *mutations, *queries, clients, *exact)
		if *remote != "" {
			fmt.Fprintf(stdout, "remote: %s (cache stats are the server-side counter delta)\n", *remote)
		}
		fmt.Fprintf(stdout, "elapsed: %v  throughput: %.0f queries/s\n",
			elapsed.Round(time.Millisecond), rep.Throughput)
		fmt.Fprintf(stdout, "latency: p50=%v p90=%v p99=%v max=%v\n",
			quantile(0.50), quantile(0.90), quantile(0.99), latencies[len(latencies)-1])
		printCacheStats(stdout, st)
	}

	if *compare != "" {
		// Gate messages go to stderr so -json stdout stays parseable.
		if err := compareThroughput(stderr, *compare, rep.Workload, rep.Throughput); err != nil {
			fmt.Fprintln(stderr, "hsched bench:", err)
			return 1
		}
	}
	return 0
}

// remoteWorkloadName maps a workload preset to its baseline key for
// remote (client-mode) runs: "serve" for the default preset,
// "serve-<preset>" otherwise, with "-binary" appended when the wire
// codec is binary. Remote throughput is wire-bound, so it gates
// against its own recorded baseline, never the in-process one — and
// each codec against its own, since the encodings cost differently.
func remoteWorkloadName(workload, codec string) string {
	name := "serve"
	if workload != "default" {
		name += "-" + workload
	}
	if codec == "binary" {
		name += "-binary"
	}
	return name
}

// remoteQuerier builds the client-mode query function: the same
// population, serialised once into request bodies and fired at a
// running `hsched serve` over keep-alive connections. The returned
// stats function reports the server-side counter delta over the run,
// so the report's cache block means the same thing it does in-process.
func remoteQuerier(base, workload, codec string, exact bool, clients, window int, pop []*model.System, rec func(k int, d time.Duration)) (func(context.Context, int) error, func() error, func() (service.Stats, error), error) {
	base = strings.TrimRight(base, "/")
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return nil, nil, nil, fmt.Errorf("remote %q: not a URL", base)
	}
	if window < 1 {
		window = 1
	}

	path := u.Path + "/v1/analyze"
	search := workload == "assign" || workload == "exact-search"
	if search {
		path = u.Path + "/v1/assign"
	}
	// Pre-assemble every request down to the bytes on the wire: the
	// benchmark measures the server and the transport, not client-side
	// encoding — and net/http's full client stack costs several times
	// a memo-hit analysis per request, so the hot loop writes these
	// over persistent connections instead (one per goroutine, pooled),
	// keeping up to `window` requests in flight per connection.
	reqs := make([][]byte, len(pop))
	for k, sys := range pop {
		var (
			data []byte
			err  error
		)
		ctype, accept := "application/json", ""
		switch {
		case search:
			data, err = json.Marshal(&httpd.AssignRequest{
				System:  spec.FromSystem(sys),
				Policy:  "audsley",
				Options: httpd.OptionsSpec{Exact: exact},
			})
		case codec == "binary":
			// Canonical wire bytes both ways: the server answers a
			// repeated body from the intern pool without decoding, and
			// the fixed-size binary response skips JSON encoding too.
			ctype = httpd.ContentTypeBinary
			accept = "Accept: " + httpd.ContentTypeBinary + "\r\n"
			data, err = httpd.EncodeAnalyzeRequestBinary(sys, httpd.OptionsSpec{Exact: exact, StopAtDeadlineMiss: true})
		default:
			data, err = json.Marshal(&httpd.AnalyzeRequest{
				System:  spec.FromSystem(sys),
				Options: httpd.OptionsSpec{Exact: exact, StopAtDeadlineMiss: true},
			})
		}
		if err != nil {
			return nil, nil, nil, err
		}
		reqs[k] = fmt.Appendf(nil,
			"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\n%sContent-Length: %d\r\n\r\n%s",
			path, u.Host, ctype, accept, len(data), data)
	}

	// Warm-up: prime every distinct request once, sequentially, so the
	// measured run starts from the steady state the benchmark means to
	// characterise regardless of what the server saw before. The stats
	// snapshot is taken after the warm-up — not at connect time — so
	// the reported cache block is the counter delta of the measured
	// queries alone, never of warm-up or pre-existing traffic.
	wc, err := dialBench(u.Host)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("remote %s unreachable: %w", base, err)
	}
	for k := range reqs {
		if err := wc.submit(k, reqs[k], 1, func(int, time.Duration) {}); err != nil {
			wc.conn.Close()
			return nil, nil, nil, fmt.Errorf("remote %s warm-up: %w", path, err)
		}
	}
	wc.conn.Close()

	client := &http.Client{}
	before, err := remoteStats(client, base)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("remote %s unreachable: %w", base, err)
	}

	conns := make(chan *benchConn, clients)
	query := func(ctx context.Context, k int) error {
		var bc *benchConn
		select {
		case bc = <-conns:
		default:
			var err error
			if bc, err = dialBench(u.Host); err != nil {
				return err
			}
		}
		if err := bc.submit(k, reqs[k%len(reqs)], window, rec); err != nil {
			bc.conn.Close()
			return fmt.Errorf("remote %s: %w", path, err)
		}
		conns <- bc
		return nil
	}
	// flush drains the responses still in flight at the end of the run
	// and closes every pooled connection.
	flush := func() error {
		var firstErr error
		for {
			select {
			case bc := <-conns:
				for len(bc.inflight) > 0 && firstErr == nil {
					firstErr = bc.readOne(rec)
				}
				bc.conn.Close()
			default:
				if firstErr != nil {
					return fmt.Errorf("remote %s: %w", path, firstErr)
				}
				return nil
			}
		}
	}
	finalStats := func() (service.Stats, error) {
		after, err := remoteStats(client, base)
		if err != nil {
			return service.Stats{}, err
		}
		return service.Stats{
			Queries:           after.Queries - before.Queries,
			Hits:              after.Hits - before.Hits,
			Misses:            after.Misses - before.Misses,
			Evictions:         after.Evictions - before.Evictions,
			InflightDedups:    after.InflightDedups - before.InflightDedups,
			DeltaHits:         after.DeltaHits - before.DeltaHits,
			RoundsSaved:       after.RoundsSaved - before.RoundsSaved,
			ScenariosPruned:   after.ScenariosPruned - before.ScenariosPruned,
			SubtreesPruned:    after.SubtreesPruned - before.SubtreesPruned,
			InterferenceEvals: after.InterferenceEvals - before.InterferenceEvals,
			InternHits:        after.InternHits - before.InternHits,
			InternMisses:      after.InternMisses - before.InternMisses,
			// Resident is a gauge, not a counter: report the pool size
			// at the end of the run, not a meaningless difference.
			Resident: after.Resident,
		}, nil
	}
	return query, flush, finalStats, nil
}

// benchConn is one persistent keep-alive connection of the bench
// client's hot loop, carrying the write-time FIFO of its in-flight
// pipelined requests.
type benchConn struct {
	conn     net.Conn
	br       *bufio.Reader
	inflight []pendingReq
}

// pendingReq is one written-but-unanswered request: responses arrive
// in request order, so the head of the FIFO names the next response.
type pendingReq struct {
	k  int
	t0 time.Time
}

func dialBench(host string) (*benchConn, error) {
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &benchConn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// submit writes one pre-assembled request, then reads responses until
// the connection is back under its pipeline window. Each response is
// timed from its own request's write (rec), so pipelined latencies
// include the queueing the window introduces.
func (c *benchConn) submit(k int, req []byte, window int, rec func(int, time.Duration)) error {
	c.conn.SetDeadline(time.Now().Add(2 * time.Minute)) //nolint:errcheck
	t0 := time.Now()
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	c.inflight = append(c.inflight, pendingReq{k: k, t0: t0})
	for len(c.inflight) >= window {
		if err := c.readOne(rec); err != nil {
			return err
		}
	}
	return nil
}

// readOne consumes the response of the oldest in-flight request,
// draining the body so the connection stays reusable.
func (c *benchConn) readOne(rec func(int, time.Duration)) error {
	p := c.inflight[0]
	c.inflight = c.inflight[1:]
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	rec(p.k, time.Since(p.t0))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// remoteStats fetches the server's service counters from /v1/stats.
func remoteStats(client *http.Client, base string) (service.Stats, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return service.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Stats{}, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st httpd.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.Stats{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st.Service, nil
}

// compareThroughput loads a baseline report file and fails when the
// measured throughput falls below regressionTolerance of the recorded
// one. The file is either a map of workload name to report (the
// committed BENCH_seed.json) or a single report from a previous
// `hsched bench -json` run.
func compareThroughput(out io.Writer, path, workload string, measured float64) error {
	base, err := loadBaseline(path, workload)
	if err != nil {
		return err
	}
	floor := regressionTolerance * base.Throughput
	ratio := 0.0
	if base.Throughput > 0 {
		ratio = measured / base.Throughput
	}
	if measured < floor {
		return fmt.Errorf("throughput regression on workload %q: %.0f qps is %.0f%% of the %.0f qps baseline (floor %.0f%%)",
			workload, measured, 100*ratio, base.Throughput, 100*regressionTolerance)
	}
	fmt.Fprintf(out, "bench compare: workload %q at %.0f%% of baseline throughput (%.0f vs %.0f qps) — ok\n",
		workload, 100*ratio, measured, base.Throughput)
	return nil
}

// loadBaseline reads the baseline entry for a workload; see
// compareThroughput for the accepted shapes.
func loadBaseline(path, workload string) (benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, fmt.Errorf("baseline: %w", err)
	}
	var single benchReport
	if err := json.Unmarshal(data, &single); err == nil && single.Throughput > 0 {
		// A bare report matches when it does not name a conflicting
		// workload (older reports predate the field).
		if single.Workload == "" || single.Workload == workload {
			return single, nil
		}
		return benchReport{}, fmt.Errorf("baseline %s records workload %q, not %q", path, single.Workload, workload)
	}
	var byWorkload map[string]benchReport
	if err := json.Unmarshal(data, &byWorkload); err == nil {
		if rep, ok := byWorkload[workload]; ok && rep.Throughput > 0 {
			return rep, nil
		}
		return benchReport{}, fmt.Errorf("baseline %s has no entry for workload %q", path, workload)
	}
	return benchReport{}, fmt.Errorf("baseline %s: neither a bench report nor a workload map", path)
}
