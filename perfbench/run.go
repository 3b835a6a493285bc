package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// config is one benchmark run.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	start   starter
	// setups is the number of times the end-to-end run starts and warms
	// a server; setup_s is their median. The last one serves the
	// measured phase.
	setups int
	// traceDir receives the traced run's span file ("" writes none).
	traceDir string
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run.
type report struct {
	metrics []metric
	tallies map[string]tally
	lines   []string // human-readable detail, printed before the result
	// mechanismOK reports whether the workload's mechanism check held;
	// layerMapOK whether the traced run found the predicted layers
	// doing most of the work.
	mechanismOK, layerMapOK bool
	errors                  []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// total sums the tallies of every phase.
func (r *report) total() tally {
	var t tally
	for _, v := range r.tallies {
		t = t.plus(v)
	}
	return t
}

// result is the benchmark's last output line. A run is correct when
// every answer matched its reference and the workload's mechanism
// check held: a workload whose mechanism stops firing measures
// something else, and must not pass silently.
func (r *report) result() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	t := r.total()
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0 && r.mechanismOK, t.attempted, t.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(out)
}

// prepare generates the workload's inputs from the seed.
func prepare(cfg config) (*inputs, error) {
	return cfg.w.make(cfg.seed ^ cfg.w.salt)
}

// live is a started, warmed server with its measured connections.
type live struct {
	srv     *server
	banner  time.Duration // exec to listening banner
	clients [conns]*client
	stats   *client
	tokens  []string
	ledger  ledger
}

func (l *live) close() error {
	for _, c := range l.clients {
		if c != nil {
			c.close()
		}
	}
	if l.stats != nil {
		l.stats.close()
	}
	return l.srv.stop()
}

// setUp starts a server, opens the connections (and, for session
// workloads, one session each) and sends the warm-up requests.
func setUp(cfg config, in *inputs) (*live, error) {
	t0 := time.Now()
	srv, err := cfg.start()
	if err != nil {
		return nil, err
	}
	l := &live{srv: srv, banner: time.Since(t0)}
	fail := func(err error) (*live, error) {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	for c := range l.clients {
		if l.clients[c], err = dial(srv.addr); err != nil {
			return fail(err)
		}
	}
	if l.stats, err = dial(srv.addr); err != nil {
		return fail(err)
	}
	if in.kind == kindSession {
		for c := range l.clients {
			status, body, err := l.clients[c].do("POST", "/v1/session", in.sessionBody())
			var sr struct {
				Token string `json:"token"`
			}
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &sr)
			}
			if err != nil || status != http.StatusOK {
				return fail(fmt.Errorf("open session: status %d: %v", status, err))
			}
			l.tokens = append(l.tokens, sr.Token)
		}
	}
	for c := range l.clients {
		path := in.path(l.token(c))
		for i := range in.warm[c] {
			req := rawRequest(path, &in.warm[c][i])
			status, body, err := l.clients[c].roundTrip(req.raw, nil)
			l.ledger[c] = append(l.ledger[c], &record{
				conn: c, i: i, warm: true, binary: req.binary, bytes: req.bytes,
				phase: "warm-up", status: status, err: err, body: body,
			})
			if err != nil {
				return fail(fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	return l, nil
}

func (l *live) token(c int) string {
	if c < len(l.tokens) {
		return l.tokens[c]
	}
	return ""
}

// requestMaker returns, per connection, the function that generates
// stream request i ready to send. Cycling streams are assembled once up
// front.
func (l *live) requestMaker(in *inputs) ([conns]func(int) (wire, error), error) {
	var raw [conns]func(int) (wire, error)
	for c := range raw {
		path := in.path(l.token(c))
		gen := func(i int) (wire, error) {
			cl, err := in.stream(c, i)
			if err != nil {
				return wire{}, err
			}
			return rawRequest(path, cl), nil
		}
		raw[c] = gen
		if in.cycle > 0 {
			pre := make([]wire, in.cycle)
			for i := range pre {
				var err error
				if pre[i], err = gen(i); err != nil {
					return raw, err
				}
			}
			raw[c] = func(i int) (wire, error) { return pre[i%len(pre)], nil }
		}
	}
	return raw, nil
}

// record appends a phase's samples to the ledger.
func (l *live) record(in *inputs, p *phaseResult, phase string) []*record {
	out := make([]*record, len(p.samples))
	for k := range p.samples {
		s := &p.samples[k]
		r := &record{
			conn: s.conn, i: s.i, binary: s.binary, bytes: s.bytes,
			phase: phase, status: s.status, err: s.err, body: p.body(s),
		}
		l.ledger[s.conn] = append(l.ledger[s.conn], r)
		out[k] = r
	}
	return out
}

// measured is one loopback phase with the counters around it.
type measured struct {
	phase         *phaseResult
	records       []*record
	before, after counters
	serverCPU     time.Duration
	loadgenCPU    time.Duration
	// cpu samples the server's CPU time through the phase, so each
	// window gets its own CPU cost per request.
	cpu []cpuPoint
}

// cpuPoint is the server's CPU time at an offset into the phase.
type cpuPoint struct {
	at, cpu time.Duration
}

// cpuSampling is the interval of the server CPU sampler: fine enough
// that interpolation leaves the 10 ms tick of /proc as the only error.
const cpuSampling = 20 * time.Millisecond

// measure runs one closed-loop phase and snapshots the server's
// counters and CPU time around it.
func (l *live) measure(in *inputs, raw [conns]func(int) (wire, error), from [conns]int, dur time.Duration, name string, tr *tracer) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = snapshot(l.stats, l.tokens); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(l.srv.pid)
	if err != nil {
		return nil, err
	}
	// The clients spend their time blocked on the network: one processor
	// serves them, and the runtime does not spin a second one that would
	// take CPU from the server being measured.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lg0 := selfCPU()
	t0 := time.Now()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(cpuSampling)
		defer tick.Stop()
		for {
			if c, err := procCPU(l.srv.pid); err == nil {
				m.cpu = append(m.cpu, cpuPoint{time.Since(t0), c - cpu0})
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	m.phase = runPhase(l.clients, raw, from, dur, tr)
	close(stop)
	<-done
	m.loadgenCPU = selfCPU() - lg0
	cpu1, err := procCPU(l.srv.pid)
	if err != nil {
		return nil, err
	}
	m.serverCPU = cpu1 - cpu0
	m.cpu = append(m.cpu, cpuPoint{time.Since(t0), m.serverCPU})
	if m.after, err = snapshot(l.stats, l.tokens); err != nil {
		return nil, err
	}
	if m.phase.err != nil {
		return nil, fmt.Errorf("%s phase: %w", name, m.phase.err)
	}
	m.records = l.record(in, m.phase, name)
	return m, nil
}

// cpuAt interpolates the server CPU time spent by offset at.
func (m *measured) cpuAt(at time.Duration) float64 {
	k := sort.Search(len(m.cpu), func(i int) bool { return m.cpu[i].at >= at })
	switch {
	case k == 0:
		return float64(m.cpu[0].cpu)
	case k == len(m.cpu):
		return float64(m.cpu[k-1].cpu)
	}
	a, b := m.cpu[k-1], m.cpu[k]
	f := float64(at-a.at) / float64(b.at-a.at)
	return float64(a.cpu) + f*float64(b.cpu-a.cpu)
}

// latencies returns the phase's request latencies in µs, sorted; a
// failed request counts as +Inf, missing every latency limit.
func (m *measured) latencies() []float64 {
	out := make([]float64, len(m.records))
	for k, r := range m.records {
		out[k] = math.Inf(1)
		if !r.failed {
			s := &m.phase.samples[k]
			out[k] = float64(s.end-s.start) / float64(time.Microsecond)
		}
	}
	sort.Float64s(out)
	return out
}

// Windowing: a phase is cut into the largest odd number of equal
// windows, at most maxWindows, in which every window's p99 has at least
// minTail samples beyond it. A burst of interference from outside the
// benchmark then spoils a window or two, not the run's figures, which
// are window medians.
const maxWindows = 15

// windowStats are a phase's per-window figures.
type windowStats struct {
	qps, p50, p99, cpuPerReq []float64
	// minSamples is the smallest window's sample count.
	minSamples int
}

func (m *measured) windows(dur time.Duration) windowStats {
	k := maxWindows
	for ; k > 1; k -= 2 {
		if ws := m.windowsOf(dur, k); supported(ws.minSamples, 0.99) {
			return ws
		}
	}
	return m.windowsOf(dur, 1)
}

func (m *measured) windowsOf(dur time.Duration, k int) windowStats {
	width := dur / time.Duration(k)
	lat := make([][]float64, k)
	ok := make([]float64, k)
	for idx, r := range m.records {
		s := &m.phase.samples[idx]
		w := int(s.end / width)
		if w >= k {
			continue // completed after the phase's end
		}
		v := math.Inf(1)
		if !r.failed {
			v = float64(s.end-s.start) / float64(time.Microsecond)
			ok[w]++
		}
		lat[w] = append(lat[w], v)
	}
	ws := windowStats{minSamples: math.MaxInt}
	for w := range k {
		sort.Float64s(lat[w])
		ws.minSamples = min(ws.minSamples, len(lat[w]))
		cpu := m.cpuAt(width*time.Duration(w+1)) - m.cpuAt(width*time.Duration(w))
		ws.qps = append(ws.qps, ok[w]/width.Seconds())
		ws.p50 = append(ws.p50, quantile(lat[w], 0.5))
		ws.p99 = append(ws.p99, quantile(lat[w], 0.99))
		ws.cpuPerReq = append(ws.cpuPerReq, ratio(cpu/float64(time.Microsecond), ok[w]))
	}
	return ws
}

func (m *measured) succeeded() int {
	n := 0
	for _, r := range m.records {
		if !r.failed {
			n++
		}
	}
	return n
}

// runEndToEnd is the untraced run: set up cfg.setups times, measure
// one closed-loop phase on the last server, check every answer.
func runEndToEnd(cfg config) (*report, error) {
	in, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{tallies: map[string]tally{}}
	ck := newChecker(in)
	var (
		setups, banners []float64
		l               *live
	)
	for s := range max(cfg.setups, 1) {
		t0 := time.Now()
		if l, err = setUp(cfg, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		banners = append(banners, l.banner.Seconds())
		if s < cfg.setups-1 {
			if err := l.close(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
			ck.verify(&l.ledger)
			tallies(&l.ledger, rep.tallies)
		}
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	raw, err := l.requestMaker(in)
	if err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	m, err := l.measure(in, raw, [conns]int{}, dur, "measured", nil)
	if err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	hwm, err := procHWM(l.srv.pid)
	if err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := l.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	ck.verify(&l.ledger)
	tallies(&l.ledger, rep.tallies)
	rep.errors = ck.errors

	ws := m.windows(dur)
	rep.add("latency_p50_us", median(ws.p50), "us")
	rep.add("server_cpu_us_per_req", median(ws.cpuPerReq), "us")
	rep.add("server_peak_rss_mb", hwm, "MiB")
	rep.add("setup_s", median(setups), "s")

	rep.printf("windows: %d of %v; the smallest holds %d samples, its p99 has %d beyond it (needs %d), highest supported percentile p%g",
		len(ws.qps), dur/time.Duration(len(ws.qps)), ws.minSamples, beyond(ws.minSamples, 0.99), minTail, 100*highestSupported(ws.minSamples))
	rep.printf("window throughput %s req/s", roundAll(ws.qps, 0))
	rep.printf("window p50 %s us, p99 %s us", roundAll(ws.p50, 1), roundAll(ws.p99, 1))
	rep.printf("window server CPU per request %s us", roundAll(ws.cpuPerReq, 1))
	rep.printf("failed_ratio: %d failed / %d attempted = %g (measured phase)",
		rep.tallies["measured"].failed, rep.tallies["measured"].attempted, rep.tallies["measured"].failedRatio())
	rep.printf("loadgen: %.2f s CPU vs server %.2f s CPU over %.2f s wall",
		m.loadgenCPU.Seconds(), m.serverCPU.Seconds(), m.phase.wall.Seconds())
	rep.printf("setup_s samples: %s s, of which exec to banner %s s", roundAll(setups, 4), roundAll(banners, 4))
	rep.mechanismOK = mechanisms(rep, in, cfg.w, m)
	return rep, nil
}

// delta is the server's counter movement over one phase.
type delta struct {
	queries, hits, misses, evictions, dedups, deltaHits, roundsSaved float64
	scenariosPruned, subtreesPruned, internHits, internMisses, parse float64
	binary, errors, shed, resident                                   float64
	sessProbes, sessExecuted, sessDeltaHits                          float64
}

func (m *measured) delta() delta {
	b, a := m.before.stats, m.after.stats
	d := delta{
		queries:         float64(a.Service.Queries - b.Service.Queries),
		hits:            float64(a.Service.Hits - b.Service.Hits),
		misses:          float64(a.Service.Misses - b.Service.Misses),
		evictions:       float64(a.Service.Evictions - b.Service.Evictions),
		dedups:          float64(a.Service.InflightDedups - b.Service.InflightDedups),
		deltaHits:       float64(a.Service.DeltaHits - b.Service.DeltaHits),
		roundsSaved:     float64(a.Service.RoundsSaved - b.Service.RoundsSaved),
		scenariosPruned: float64(a.Service.ScenariosPruned - b.Service.ScenariosPruned),
		subtreesPruned:  float64(a.Service.SubtreesPruned - b.Service.SubtreesPruned),
		internHits:      float64(a.Service.InternHits - b.Service.InternHits),
		internMisses:    float64(a.Service.InternMisses - b.Service.InternMisses),
		parse:           float64(a.ParseHits - b.ParseHits),
		binary:          float64(a.BinaryHits - b.BinaryHits),
		resident:        float64(a.Service.Resident),
	}
	for name, e := range a.Endpoints {
		d.errors += float64(e.Errors - b.Endpoints[name].Errors)
		d.shed += float64(e.Shed - b.Endpoints[name].Shed)
	}
	for k := range m.after.sessions {
		sa, sb := m.after.sessions[k], m.before.sessions[k]
		d.sessProbes += float64(sa.Probes - sb.Probes)
		d.sessExecuted += float64(sa.Executed - sb.Executed)
		d.sessDeltaHits += float64(sa.DeltaHits - sb.DeltaHits)
	}
	return d
}

// mechanisms checks, from the server's counters, that the mechanism
// the workload exists to exercise fired during the phase, and reports
// each check with its base.
func mechanisms(rep *report, in *inputs, w *workload, m *measured) bool {
	d := m.delta()
	hit := ratio(d.hits, d.queries)
	check := func(ok bool, format string, args ...any) bool {
		verdict := "ok"
		if !ok {
			verdict = "FAILED"
		}
		rep.printf("mechanism %s: "+format+" — %s", append(append([]any{w.name}, args...), verdict)...)
		return ok
	}
	switch w.name {
	case "hit-mix":
		return check(hit >= 0.99, "service.hit_ratio = hits %.0f / queries %.0f = %.4f >= 0.99", d.hits, d.queries, hit)
	case "admit-edit":
		sd := ratio(d.sessDeltaHits, d.sessExecuted)
		a := check(hit <= 0.01, "service.hit_ratio = hits %.0f / queries %.0f = %.4f <= 0.01", d.hits, d.queries, hit)
		b := check(sd >= 0.9, "service.session_delta_ratio = session delta_hits %.0f / executed %.0f = %.4f >= 0.9", d.sessDeltaHits, d.sessExecuted, sd)
		return a && b
	case "exact-cold":
		pp := ratio(d.scenariosPruned, d.misses)
		a := check(d.hits == 0, "service.hit_ratio = hits %.0f / queries %.0f = %.4f == 0", d.hits, d.queries, hit)
		b := check(pp > 0, "analysis.scenarios_pruned_per_analysis = scenarios_pruned %.0f / misses %.0f = %.1f > 0", d.scenariosPruned, d.misses, pp)
		return a && b
	case "assign-search":
		searches := float64(m.succeeded())
		pps := ratio(d.queries, searches)
		return check(pps > 1, "sched.probes_per_search = service queries %.0f / searches %.0f = %.2f > 1", d.queries, searches, pps)
	}
	return false
}

// roundAll formats values with the given decimals.
func roundAll(values []float64, decimals int) string {
	out := "["
	for i, v := range values {
		if i > 0 {
			out += " "
		}
		out += strconv.FormatFloat(v, 'f', decimals, 64)
	}
	return out + "]"
}
