package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/httpd"
	"hsched/internal/model"
	"hsched/internal/sched"
	"hsched/internal/service"
)

// tracer keeps spans in memory; they are written out when the run
// ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span ending now and returns its id.
func (t *tracer) add(parent, req int64, name string, start int64) int64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	return id
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		enc.Encode(map[string]any{ //nolint:errcheck // Flush reports write errors
			"id": s.id, "parent": s.parent, "req": s.req, "name": s.name, "start_ns": s.start, "end_ns": s.end,
		})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layers of the traced run, as span names. Each names the module whose
// public entry point the span times; "client" is a loopback request
// timed by the load generator.
const (
	layerHTTPD    = "httpd"
	layerSpec     = "spec"
	layerModel    = "model"
	layerService  = "service"
	layerAnalysis = "analysis"
	layerSched    = "sched"
	layerClient   = "client"
)

var layers = []string{layerHTTPD, layerSpec, layerModel, layerService, layerAnalysis, layerSched}

// writer is a reusable in-memory http.ResponseWriter, so the handler
// pass measures the handler and not a recorder's allocations.
type writer struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *writer) Header() http.Header         { return w.h }
func (w *writer) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *writer) WriteHeader(code int)        { w.status = code }

func (w *writer) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body.Reset()
}

func newHTTPRequest(path string, cl *call, body []byte) *http.Request {
	r, _ := http.NewRequest("POST", path, bytes.NewReader(body)) // a constant method and path cannot fail
	r.ContentLength = int64(len(body))
	if cl == nil || !cl.binary {
		r.Header.Set("Content-Type", "application/json")
	} else {
		r.Header.Set("Content-Type", httpd.ContentTypeBinary)
		r.Header.Set("Accept", httpd.ContentTypeBinary)
	}
	return r
}

// newStack builds the server `hsched serve` runs with its default
// flags, in process.
func newStack() (*httpd.Server, *service.Service) {
	def := analysis.Options{Workers: 1}
	svc := service.New(service.Options{Analysis: def})
	return httpd.New(httpd.Options{Service: svc, Analysis: def}), svc
}

// handlerPass replays calls through Server.Handler().ServeHTTP of a
// fresh in-process server, one httpd span per measured call. It
// returns the spans' ids by call, the answered records, and the heap
// allocations and GC cycles per call.
type handlerPass struct {
	ids     []int64
	ledger  ledger
	allocs  float64
	gcs     float64
	handled int
}

var (
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	gcSample    = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
)

func readMetric(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxInProcess bounds the requests of the in-process passes, which
// keep every span and answer in memory.
const maxInProcess = 20000

// planned maps request k of the in-process passes onto the
// connections' streams, interleaved.
func planned(k int) (c, i int) { return k % conns, k / conns }

func runHandlerPass(in *inputs, tr *tracer, budget time.Duration) (*handlerPass, error) {
	srv, _ := newStack()
	h := srv.Handler()
	w := &writer{h: http.Header{}}
	tokens := make([]string, conns)
	if in.kind == kindSession {
		for c := range tokens {
			w.reset()
			h.ServeHTTP(w, newHTTPRequest("/v1/session", nil, in.sessionBody()))
			var sr struct {
				Token string `json:"token"`
			}
			if err := json.Unmarshal(w.body.Bytes(), &sr); err != nil || w.status != http.StatusOK {
				return nil, fmt.Errorf("in-process session: status %d: %v", w.status, err)
			}
			tokens[c] = sr.Token
		}
	}
	p := &handlerPass{}
	serve := func(c, i int, cl *call, phase string, req int64) int64 {
		r := newHTTPRequest(in.path(tokens[c]), cl, cl.body)
		w.reset()
		a0 := readMetric(allocSample)
		start := tr.now()
		h.ServeHTTP(w, r)
		var id int64
		if req >= 0 {
			id = tr.add(0, req, layerHTTPD, start)
			p.allocs += float64(readMetric(allocSample) - a0)
		}
		p.ledger[c] = append(p.ledger[c], &record{
			conn: c, i: i, warm: req < 0, binary: cl.binary, bytes: len(cl.body),
			phase: phase, status: w.status, body: append([]byte(nil), w.body.Bytes()...),
		})
		return id
	}
	for c := range in.warm {
		for i := range in.warm[c] {
			serve(c, i, &in.warm[c][i], "in-process warm-up", -1)
		}
	}
	gc0 := readMetric(gcSample)
	deadline := time.Now().Add(budget)
	for k := 0; k < maxInProcess && time.Now().Before(deadline); k++ {
		c, i := planned(k)
		cl, err := in.stream(c, i)
		if err != nil {
			return nil, err
		}
		p.ids = append(p.ids, serve(c, i, cl, "in-process", int64(k)))
	}
	p.handled = len(p.ids)
	p.gcs = float64(readMetric(gcSample) - gc0)
	return p, nil
}

// layerPass replays the same calls on a second fresh stack, calling
// each layer's public entry point the way the handler does and timing
// each call as a child of the request's httpd span: spec decoding,
// model decoding and fingerprinting, the service (intern pool, memo,
// session) and sched. A service call that ran an analysis is followed
// by the same analysis on the pass's own engine, timed as the service
// span's child, so the service's own share is its span minus that.
type layerPass struct {
	svc      *service.Service
	twin     *analysis.Engine
	parsed   map[[sha256.Size]byte]parsedBody
	sess     [conns]*service.Session
	base     [conns]*model.System
	prev     [conns]*analysis.Result
	hitUS    []float64 // service analyze calls answered without analysis
	missUS   []float64 // service analyze calls that ran one
	coldUS   []float64 // engine runs, cold
	deltaUS  []float64 // engine runs, incremental
	assignUS []float64
	decodeUS map[string][]float64 // spec/model entry points
	// Work counts summed over the pass's engine runs.
	runs, iterations, pruned, clean, tasks float64
	scenarios                              float64 // Σ Iterations × Σ ScenarioCount over exact runs
}

type parsedBody struct {
	sys *model.System
	fp  model.Fingerprint
}

func newLayerPass(in *inputs) *layerPass {
	_, svc := newStack()
	lp := &layerPass{
		svc:      svc,
		twin:     analysis.NewEngine(in.analysis()),
		parsed:   make(map[[sha256.Size]byte]parsedBody),
		decodeUS: map[string][]float64{},
	}
	for c := range lp.sess {
		lp.sess[c] = svc.NewSession()
	}
	return lp
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// step runs one call through the layers. With tr nil nothing is timed
// (warm-up).
func (lp *layerPass) step(in *inputs, tr *tracer, parent, req int64, c int, cl *call) error {
	ctx := context.Background()
	timed := func(layer, entry string, f func() error) (int64, int64, error) {
		if tr == nil {
			return 0, 0, f()
		}
		start := tr.now()
		err := f()
		id := tr.add(parent, req, layer, start)
		d := tr.spans[id-1].dur()
		if entry != "" {
			lp.decodeUS[entry] = append(lp.decodeUS[entry], us(d))
		}
		return id, d, err
	}
	var (
		sys *model.System
		fp  model.Fingerprint
		res *analysis.Result
	)
	opt := in.analysis()
	misses := lp.svc.Stats().Misses
	var svcID, svcDur int64
	var err error
	switch {
	case in.kind == kindAssign:
		var areq httpd.AssignRequest
		if _, _, err = timed(layerSpec, "spec.decode", func() error {
			if err := json.Unmarshal(cl.body, &areq); err != nil {
				return err
			}
			sys, err = areq.System.ToSystem()
			return err
		}); err != nil {
			return err
		}
		_, d, err := timed(layerSched, "", func() error {
			_, _, err := sched.Assign(ctx, sys, sched.PolicyAudsley, sched.AssignOptions{Analysis: opt, Service: lp.svc})
			return err
		})
		if tr != nil {
			lp.assignUS = append(lp.assignUS, us(d))
		}
		return err
	case cl.binary:
		sysBytes := cl.body[48:]                              // the binary request's options header is 48 bytes
		timed(layerModel, "model.fingerprint", func() error { //nolint:errcheck // cannot fail
			fp = model.Fingerprint(sha256.Sum256(sysBytes))
			return nil
		})
		var ok bool
		timed(layerService, "", func() error { sys, ok = lp.svc.Interned(fp); return nil }) //nolint:errcheck // cannot fail
		if !ok {
			var dec model.System
			if _, _, err = timed(layerModel, "model.unmarshal", func() error {
				if err := dec.UnmarshalBinary(sysBytes); err != nil {
					return err
				}
				return dec.Validate()
			}); err != nil {
				return err
			}
			sys = &dec
		}
		svcID, svcDur, err = timed(layerService, "", func() error {
			if !ok {
				sys = lp.svc.InternFingerprinted(fp, sys)
			}
			res, err = lp.svc.AnalyzeFingerprinted(ctx, fp, sys, opt, false)
			return err
		})
	case in.kind == kindSession:
		var areq httpd.AnalyzeRequest
		if _, _, err = timed(layerSpec, "spec.decode", func() error {
			if err := json.Unmarshal(cl.body, &areq); err != nil {
				return err
			}
			if areq.System != nil {
				sys, err = areq.System.ToSystem()
				return err
			}
			set := areq.Edit.Set[0]
			tr, err := set.Transaction.ToTransaction(len(lp.base[c].Platforms))
			if err != nil {
				return err
			}
			sys = lp.base[c].Clone()
			sys.Transactions[set.Index-1] = tr
			return sys.Validate()
		}); err != nil {
			return err
		}
		timed(layerModel, "model.fingerprint", func() error { fp = sys.Fingerprint(); return nil }) //nolint:errcheck // cannot fail
		svcID, svcDur, err = timed(layerService, "", func() error {
			sys = lp.svc.InternFingerprinted(fp, sys)
			res, err = lp.sess[c].AnalyzeFingerprinted(ctx, fp, sys, opt)
			return err
		})
		lp.base[c] = sys
	default:
		key := sha256.Sum256(cl.body)
		p, ok := lp.parsed[key]
		if !ok {
			var areq httpd.AnalyzeRequest
			if _, _, err = timed(layerSpec, "spec.decode", func() error {
				if err := json.Unmarshal(cl.body, &areq); err != nil {
					return err
				}
				p.sys, err = areq.System.ToSystem()
				return err
			}); err != nil {
				return err
			}
			timed(layerModel, "model.fingerprint", func() error { p.fp = p.sys.Fingerprint(); return nil }) //nolint:errcheck // cannot fail
		}
		svcID, svcDur, err = timed(layerService, "", func() error {
			if !ok {
				p.sys = lp.svc.InternFingerprinted(p.fp, p.sys)
				lp.parsed[key] = p
			}
			res, err = lp.svc.AnalyzeFingerprinted(ctx, p.fp, p.sys, opt, false)
			return err
		})
		sys = p.sys
	}
	if err != nil {
		return err
	}
	ran := lp.svc.Stats().Misses != misses
	if tr == nil {
		if ran && in.kind == kindSession {
			lp.prev[c], err = lp.twinRun(ctx, lp.prev[c], sys)
		}
		return err
	}
	if !ran {
		lp.hitUS = append(lp.hitUS, us(svcDur))
		return nil
	}
	lp.missUS = append(lp.missUS, us(svcDur))
	// The twin replays the analysis the service just ran, seeded the way
	// the service seeded it: a session's previous result, or cold.
	var seed *analysis.Result
	if in.kind == kindSession {
		seed = lp.prev[c]
	}
	start := tr.now()
	twin, err := lp.twinRun(ctx, seed, sys)
	id := tr.add(svcID, req, layerAnalysis, start)
	if err != nil {
		return err
	}
	if err := sameResult(twin, res); err != nil {
		return fmt.Errorf("engine twin disagrees with the service: %w", err)
	}
	if in.kind == kindSession {
		lp.prev[c] = twin
	}
	d := us(tr.spans[id-1].dur())
	if twin.Delta != nil {
		lp.deltaUS = append(lp.deltaUS, d)
	} else {
		lp.coldUS = append(lp.coldUS, d)
	}
	lp.runs++
	lp.iterations += float64(twin.Iterations)
	lp.pruned += float64(twin.ScenariosPruned)
	if twin.Delta != nil {
		lp.clean += float64(twin.Delta.CleanTasks)
		lp.tasks += float64(twin.Delta.CleanTasks + twin.Delta.DirtyTasks)
	}
	if in.opt.Exact {
		n := 0.0
		for a := range twin.System.Transactions {
			for b := range twin.System.Transactions[a].Tasks {
				ex, _ := analysis.ScenarioCount(twin.System, a, b)
				n += float64(ex)
			}
		}
		lp.scenarios += n * float64(twin.Iterations)
	}
	return nil
}

func (lp *layerPass) twinRun(ctx context.Context, seed *analysis.Result, sys *model.System) (*analysis.Result, error) {
	if seed == nil {
		return lp.twin.AnalyzeContext(ctx, sys)
	}
	return lp.twin.AnalyzeFromContext(ctx, seed, sys)
}

// runTraced is the traced run: an untraced and a traced loopback phase
// of the same stream (their latency difference is the tracing
// overhead, and the traced phase's counter deltas give the per-layer
// ratios), then the in-process handler and layer passes that time each
// module's entry points.
func runTraced(cfg config) (*report, error) {
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	in, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{tallies: map[string]tally{}}
	ck := newChecker(in)
	tr := newTracer()

	l, err := setUp(cfg, in)
	if err != nil {
		return nil, err
	}
	raw, err := l.requestMaker(in)
	if err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	plain, err := l.measure(in, raw, [conns]int{}, half, "untraced", nil)
	if err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	// The traced phase records one client span per request as it goes,
	// through the shared tracer, like any in-process tracer would.
	m, err := l.measure(in, raw, plain.phase.next, half, "traced", tr)
	if err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := l.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	// The layer pass replays every request of the handler pass and runs
	// a second engine on each miss, so it takes about twice as long: a
	// quarter of the run keeps the traced run near twice --seconds.
	hp, err := runHandlerPass(in, tr, half/2)
	if err != nil {
		return nil, err
	}
	lp := newLayerPass(in)
	for c := range in.warm {
		for i := range in.warm[c] {
			if err := lp.step(in, nil, 0, 0, c, &in.warm[c][i]); err != nil {
				return nil, fmt.Errorf("layer pass warm-up: %w", err)
			}
		}
	}
	for k := range hp.handled {
		c, i := planned(k)
		cl, err := in.stream(c, i)
		if err != nil {
			return nil, err
		}
		if err := lp.step(in, tr, hp.ids[k], int64(k), c, cl); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
	}

	ck.verify(&l.ledger)
	ck.verify(&hp.ledger)
	tallies(&l.ledger, rep.tallies)
	tallies(&hp.ledger, rep.tallies)
	rep.errors = ck.errors
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.printf("trace: %d spans written to %s", len(tr.spans), path)
	}
	perLayer(rep, cfg, in, plain, m, hp, lp, tr)
	return rep, nil
}

// perLayer computes every per-layer metric of the traced run.
func perLayer(rep *report, cfg config, in *inputs, plain, m *measured, hp *handlerPass, lp *layerPass, tr *tracer) {
	d := m.delta()
	var handlerUS []float64
	names := map[int64]string{}
	for _, s := range tr.spans {
		names[s.id] = s.name
		if s.name == layerHTTPD {
			handlerUS = append(handlerUS, us(s.dur()))
		}
	}
	handler := median(handlerUS)
	loop := quantile(plain.latencies(), 0.5)
	// Throughput and the p99, as window medians of the untraced phase.
	// They are reported here rather than gated end to end: on a shared
	// host, CPU stolen in bursts of milliseconds stalls the load
	// generator between requests and the tail of sub-millisecond
	// requests by more than any bound a gate could use.
	tail := plain.windows(time.Duration(cfg.seconds * float64(time.Second) / 2))

	var jsonReqs, binReqs, bytesSent float64
	for _, r := range m.records {
		bytesSent += float64(r.bytes)
		if in.kind == kindAnalyze && r.binary {
			binReqs++
		} else if in.kind == kindAnalyze {
			jsonReqs++
		}
	}
	searches := 0.0
	if in.kind == kindAssign {
		searches = float64(m.succeeded())
	}

	// Self time per layer, as a share of the per-request server time
	// (the httpd spans of the handler pass).
	self := selfTimes(tr.spans)
	share := map[string]float64{}
	var server float64
	for _, s := range tr.spans {
		if s.name == layerHTTPD {
			server += float64(s.dur())
		}
		if s.name != layerClient {
			share[s.name] += float64(self[s.id])
		}
	}
	for k := range share {
		share[k] = ratio(share[k], server)
	}

	add := rep.add
	add("throughput_qps", median(tail.qps), "req/s")
	add("latency_p99_us", median(tail.p99), "us")
	add("httpd.handler_us_p50", handler, "us")
	add("httpd.wire_us_p50", loop-handler, "us")
	add("httpd.parse_hit_ratio", ratio(d.parse, jsonReqs), "ratio")
	add("httpd.binary_hit_ratio", ratio(d.binary, binReqs), "ratio")
	add("httpd.errors", d.errors, "count")
	add("httpd.shed", d.shed, "count")
	add("spec.decode_us_p50", median(lp.decodeUS["spec.decode"]), "us")
	add("model.unmarshal_us_p50", median(lp.decodeUS["model.unmarshal"]), "us")
	add("model.fingerprint_us_p50", median(lp.decodeUS["model.fingerprint"]), "us")
	add("model.request_bytes", ratio(bytesSent, float64(len(m.records))), "bytes")
	add("service.hit_ratio", ratio(d.hits, d.queries), "ratio")
	add("service.intern_hit_ratio", ratio(d.internHits, d.internHits+d.internMisses), "ratio")
	add("service.analyze_hit_us_p50", median(lp.hitUS), "us")
	add("service.analyze_miss_us_p50", median(lp.missUS), "us")
	add("service.evictions", d.evictions, "count")
	add("service.intern_resident", d.resident, "count")
	add("service.delta_ratio", ratio(d.deltaHits, d.misses), "ratio")
	add("service.session_delta_ratio", ratio(d.sessDeltaHits, d.sessExecuted), "ratio")
	add("service.rounds_saved_per_miss", ratio(d.roundsSaved, d.misses), "count")
	add("service.inflight_dedup_ratio", ratio(d.dedups, d.queries), "ratio")
	add("analysis.delta_us_p50", median(lp.deltaUS), "us")
	add("analysis.cold_us_p50", median(lp.coldUS), "us")
	add("analysis.clean_task_share", ratio(lp.clean, lp.tasks), "ratio")
	add("analysis.iterations_per_analysis", ratio(lp.iterations, lp.runs), "count")
	add("analysis.scenarios_pruned_per_analysis", ratio(d.scenariosPruned, d.misses), "count")
	add("analysis.subtrees_pruned_per_analysis", ratio(d.subtreesPruned, d.misses), "count")
	add("analysis.prune_ratio", ratio(lp.pruned, lp.scenarios), "ratio")
	add("sched.assign_us_p50", median(lp.assignUS), "us")
	add("sched.probes_per_search", ratio(d.queries, searches), "count")
	add("sched.probe_hit_ratio", ratio(d.hits, d.queries)*boolf(searches > 0), "ratio")
	add("sched.probe_delta_ratio", ratio(d.deltaHits, d.misses)*boolf(searches > 0), "ratio")
	add("runtime.allocs_per_req", ratio(hp.allocs, float64(hp.handled)), "count")
	add("runtime.gc_per_kreq", 1000*ratio(hp.gcs, float64(hp.handled)), "count")
	add("loadgen.cpu_share", ratio(m.loadgenCPU.Seconds(), (m.loadgenCPU+m.serverCPU).Seconds()), "ratio")
	add("trace.overhead_us", quantile(m.latencies(), 0.5)-loop, "us")
	for _, layer := range layers {
		add(layer+".self_share", share[layer], "ratio")
	}
	mech := mechanisms(rep, in, cfg.w, m)
	rep.mechanismOK = mech
	add("mechanism_ok", boolf(mech), "count")

	rep.printf("bases: parse_hit_ratio = parse_hits %.0f / JSON analyze requests %.0f; binary_hit_ratio = binary_hits %.0f / binary requests %.0f",
		d.parse, jsonReqs, d.binary, binReqs)
	rep.printf("bases: hit_ratio = hits %.0f / queries %.0f; delta_ratio = delta_hits %.0f / misses %.0f; intern = hits %.0f / lookups %.0f",
		d.hits, d.queries, d.deltaHits, d.misses, d.internHits, d.internHits+d.internMisses)
	rep.printf("bases: prune_ratio = scenarios pruned %.0f / (iterations x Σ ScenarioCount) %.0f over %.0f engine runs; clean_task_share = %.0f / %.0f",
		lp.pruned, lp.scenarios, lp.runs, lp.clean, lp.tasks)
	rep.printf("latency_p99_us: median of %d window p99s; the smallest window holds %d samples, %d beyond its p99",
		len(tail.p99), tail.minSamples, beyond(tail.minSamples, 0.99))
	rep.printf("in-process passes: %d requests, %.0f engine runs; handler p50 %.1f us, loopback p50 %.1f us", hp.handled, lp.runs, handler, loop)
	type kv struct {
		k string
		v float64
	}
	var shares []kv
	for _, layer := range layers {
		shares = append(shares, kv{layer, share[layer]})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	line := "self-time shares of per-request server time:"
	for _, s := range shares {
		line += fmt.Sprintf(" %s %.3f", s.k, s.v)
	}
	rep.printf("%s", line)

	// The predicted layer map holds when the busy layers together take
	// a larger share than any other single layer.
	busy, other := 0.0, 0.0
	for _, layer := range layers {
		if slices.Contains(cfg.w.busy, layer) {
			busy += share[layer]
		} else {
			other = max(other, share[layer])
		}
	}
	rep.layerMapOK = busy > other
	verdict := "ok"
	if !rep.layerMapOK {
		verdict = "MISMATCH"
	}
	rep.printf("layer map: predicted busiest %v with share %.3f, largest other layer %.3f — %s", cfg.w.busy, busy, other, verdict)
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
