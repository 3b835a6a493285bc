package httpd

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/design"
	"hsched/internal/model"
	"hsched/internal/sched"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// Options configures a Server.
type Options struct {
	// Service is the analysis service every endpoint routes through;
	// nil constructs a private one with default options.
	Service *service.Service
	// Analysis is the server-side default analysis configuration;
	// request options blocks override it field-by-field (see
	// OptionsSpec). Servers shared by concurrent clients should set
	// Workers: 1 so requests do not oversubscribe the host.
	Analysis analysis.Options
	// MaxInflight bounds the number of analysis-running requests
	// executing concurrently; excess requests are shed with a 429.
	// 0 means unbounded.
	MaxInflight int
	// MaxSessions caps the session registry. Once it is full, each new
	// session evicts one (seed dropped): a recently created session
	// that was never used, else one not looked up since the last
	// eviction sweep, the oldest first. 0 selects 1024.
	MaxSessions int
	// DrainTimeout bounds the graceful shutdown: after it expires
	// in-flight requests are cut off hard. 0 selects 30 s.
	DrainTimeout time.Duration
	// Pprof exposes the net/http/pprof handlers under /debug/pprof/ on
	// the server mux, so a production contention regression can be
	// diagnosed in place (`go tool pprof .../debug/pprof/mutex`). The
	// handlers only serve what the runtime collects — `hsched serve
	// -pprof` additionally enables mutex and block profiling at a low
	// sample rate.
	Pprof bool
}

func (o Options) maxSessions() int {
	if o.MaxSessions <= 0 {
		return 1024
	}
	return o.MaxSessions
}

func (o Options) drainTimeout() time.Duration {
	if o.DrainTimeout <= 0 {
		return 30 * time.Second
	}
	return o.DrainTimeout
}

const (
	// maxBody caps request bodies.
	maxBody = 8 << 20
	// parseMemoCap sizes the body-hash decode cache on /v1/analyze
	// (see parseMemo).
	parseMemoCap = 512
)

// readTimeout bounds the read of one whole request, headers and body,
// so a client that stalls mid-body gets a 400 and frees its in-flight
// slot instead of holding it until it disconnects (a stalled header
// read just closes the connection). Once the body is
// read net/http clears the deadline, so it never cuts off a long
// analysis. A variable only so tests can shorten it.
var readTimeout = 10 * time.Second

// padded is a cache-line-padded atomic counter: 8 (Int64) + 56 = 64
// bytes, so adjacent counters never share a cache line and concurrent
// requests bumping different counters never ping-pong one between
// cores (the httpd mirror of service's padded stats counters).
type padded struct {
	atomic.Int64
	_ [56]byte
}

// endpointMetrics are one route's atomic request counters.
type endpointMetrics struct {
	requests padded
	errors   padded
	shed     padded
	totalUS  padded
	maxUS    padded
}

func (m *endpointMetrics) observe(status int, d time.Duration) {
	m.requests.Add(1)
	if status >= 300 {
		m.errors.Add(1)
	}
	us := d.Microseconds()
	m.totalUS.Add(us)
	for {
		cur := m.maxUS.Load()
		if us <= cur || m.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

func (m *endpointMetrics) snapshot() EndpointStats {
	n := m.requests.Load()
	st := EndpointStats{
		Requests: n,
		Errors:   m.errors.Load(),
		Shed:     m.shed.Load(),
		MaxUS:    float64(m.maxUS.Load()),
	}
	if n > 0 {
		st.MeanUS = float64(m.totalUS.Load()) / float64(n)
	}
	return st
}

// Server is the HTTP/JSON transport over a service.Service: the
// analysis endpoints of the paper's toolchain (analyze, assign,
// minimize) plus per-client probe sessions and a stats endpoint. See
// the package documentation for the route table.
type Server struct {
	svc      *service.Service
	def      analysis.Options
	sessions *sessions
	parse    *parseMemo
	mux      *http.ServeMux

	maxInflight int
	inflight    atomic.Int64
	drain       time.Duration
	start       time.Time

	// binHits counts binary analyze bodies answered from the intern
	// pool — requests whose system was never decoded at all.
	binHits atomic.Int64

	metrics map[string]*endpointMetrics
}

// New constructs a Server. The zero Options value is usable.
func New(opt Options) *Server {
	svc := opt.Service
	if svc == nil {
		svc = service.New(service.Options{Analysis: opt.Analysis})
	}
	s := &Server{
		svc:         svc,
		def:         opt.Analysis,
		sessions:    newSessions(opt.maxSessions()),
		parse:       newParseMemo(parseMemoCap),
		mux:         http.NewServeMux(),
		maxInflight: opt.MaxInflight,
		drain:       opt.drainTimeout(),
		start:       time.Now(),
		metrics:     make(map[string]*endpointMetrics),
	}
	s.route("POST /v1/analyze", "analyze", true, s.handleAnalyze)
	s.route("POST /v1/assign", "assign", true, s.handleAssign)
	s.route("POST /v1/minimize", "minimize", true, s.handleMinimize)
	s.route("POST /v1/session", "session.create", false, s.handleSessionCreate)
	s.route("POST /v1/session/{token}/analyze", "session.analyze", true, s.handleAnalyze)
	s.route("GET /v1/session/{token}/stats", "session.stats", false, s.handleSessionStats)
	s.route("DELETE /v1/session/{token}", "session.delete", false, s.handleSessionDelete)
	s.route("GET /v1/stats", "stats", false, s.handleStats)
	s.route("GET /v1/healthz", "healthz", false, s.handleHealthz)
	if opt.Pprof {
		// Uninstrumented on purpose: profile downloads are operator
		// traffic and must not skew the endpoint metrics or the
		// in-flight shed accounting.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's routing handler, for embedding in
// tests or behind custom middleware.
func (s *Server) Handler() http.Handler { return s.mux }

// route installs a handler with per-endpoint metrics; analysis-running
// endpoints (sheds true) additionally count into the in-flight
// semaphore and are shed with a 429 beyond MaxInflight. A handler
// writes its own success response and returns any error, whose body
// route writes with the status errStatus derives from it.
func (s *Server) route(pattern, name string, sheds bool, h func(http.ResponseWriter, *http.Request) error) {
	m := &endpointMetrics{}
	s.metrics[name] = m
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if sheds {
			n := s.inflight.Add(1)
			defer s.inflight.Add(-1)
			if s.maxInflight > 0 && n > int64(s.maxInflight) {
				m.shed.Add(1)
				s.writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("httpd: %d analyses in flight (limit %d)", n-1, s.maxInflight), start)
				m.observe(http.StatusTooManyRequests, time.Since(start))
				return
			}
		}
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		if err := h(sw, r); err != nil {
			s.writeError(sw, errStatus(err), err, start)
		}
		m.observe(sw.status, time.Since(start))
		sw.ResponseWriter = nil // don't pin the connection's writer
		swPool.Put(sw)
	})
}

// statusWriter captures the response status for the metrics. Instances
// are pooled (one Get/Put per request, never retained past the
// handler) so the wrapper costs the hit path no allocation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError renders the uniform error body. 504s additionally carry
// the partial-work profile: elapsed wall time, the missed deadline and
// a snapshot of the service counters at abort.
func (s *Server) writeError(w http.ResponseWriter, status int, err error, start time.Time) {
	resp := &ErrorResponse{Error: err.Error(), Status: status}
	if status == http.StatusGatewayTimeout {
		resp.ElapsedMS = elapsedMS(start)
		var de deadlineError
		if errors.As(err, &de) {
			resp.DeadlineMS = de.ms
		}
		st := s.svc.Stats()
		resp.Stats = &st
	}
	writeJSON(w, status, resp)
}

// errNoSession is returned for a session token the registry does not
// hold (never issued, deleted or evicted).
var errNoSession = errors.New("httpd: unknown session token")

// deadlineError carries the request's deadline in milliseconds (0 if
// none applied) from a failed analysis into its 504 body.
type deadlineError struct {
	error
	ms float64
}

func (e deadlineError) Unwrap() error { return e.error }

// errStatus maps a handler error to its HTTP status: the caller's
// fault (400) for malformed or inconsistent requests, an unknown
// session token (404), a missed deadline (504) for context expiry,
// otherwise an analysable-but-failed request (422: scenario blow-up,
// non-convergence, infeasible design).
func errStatus(err error) int {
	switch {
	case errors.Is(err, spec.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, errNoSession):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// poolBuf is a pooled byte buffer shared by the request-body read path
// and the binary response encoder. The bytes handed out alias pb.b, so
// release only after every use of them; release(nil) is a no-op (the
// degraded read paths return unpooled buffers).
type poolBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(poolBuf) }}

func (pb *poolBuf) release() {
	if pb != nil {
		bufPool.Put(pb)
	}
}

// rawBody reads the request body, enforcing the body cap. The declared
// Content-Length sizes a pooled buffer so the common well-behaved
// request is zero allocations and one read, instead of io.ReadAll's
// grow-and-copy ladder; the returned poolBuf owns the body bytes and
// must be released (nil on the degraded paths) once they are done
// with. Read errors wrap spec.ErrInvalid (the request is at fault).
func rawBody(r *http.Request) ([]byte, *poolBuf, error) {
	if n := r.ContentLength; n > 0 && n < maxBody {
		// Exact-size read: no growth, no limiter wrapper (the length
		// is under the cap, with room for the probe byte below).
		// net/http caps the body at Content-Length, but a short or
		// over-long body from a non-conforming transport still
		// degrades gracefully.
		pb := bufPool.Get().(*poolBuf)
		// One spare byte past n probes for body-longer-than-declared
		// without a separate buffer (a [1]byte would escape through the
		// io.Reader call — the last allocation on this path).
		if cap(pb.b) < int(n)+1 {
			pb.b = make([]byte, n+1)
		}
		body := pb.b[:n]
		switch m, err := io.ReadFull(r.Body, body); err {
		case nil:
			if k, _ := r.Body.Read(pb.b[n : n+1]); k > 0 {
				// n+1 bytes are in; the rest may bring the body to the cap.
				rest, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody-n-1))
				if err != nil {
					pb.release()
					return nil, nil, fmt.Errorf("%w: reading body: %w", spec.ErrInvalid, err)
				}
				long := append(append([]byte{}, pb.b[:n+1]...), rest...)
				pb.release()
				return long, nil, nil
			}
			return body, pb, nil
		case io.EOF, io.ErrUnexpectedEOF:
			return body[:m], pb, nil
		default:
			pb.release()
			return nil, nil, fmt.Errorf("%w: reading body: %w", spec.ErrInvalid, err)
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading body: %w", spec.ErrInvalid, err)
	}
	return body, nil, nil
}

// readBody decodes the body of a cold route (minimize, session
// create) into v with encoding/json, enforcing the body cap. The pooled
// read buffer is released here: json.Unmarshal copies everything it
// keeps. Decode errors wrap spec.ErrInvalid (the request is at fault).
func readBody(r *http.Request, v any) error {
	body, pb, err := rawBody(r)
	defer pb.release()
	if err != nil || len(body) == 0 {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: decoding request: %w", spec.ErrInvalid, err)
	}
	return nil
}

// requestCtx derives the per-request analysis context: the options
// block's deadline_ms wins over the X-Deadline-Ms header; neither, or
// a value ≤ 0, leaves the request's own context untouched. The
// returned deadline is 0 when none applies. NaN, ±Inf and deadlines
// too long for a time.Duration are the client's fault: they would
// otherwise time out at once, and NaN or Inf cannot even be encoded
// into the 504 body.
func requestCtx(r *http.Request, o OptionsSpec) (context.Context, context.CancelFunc, float64, error) {
	ms := o.DeadlineMS
	if ms == 0 {
		if h := r.Header.Get("X-Deadline-Ms"); h != "" {
			v, err := strconv.ParseFloat(h, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%w: X-Deadline-Ms: %w", spec.ErrInvalid, err)
			}
			ms = v
		}
	}
	d := ms * float64(time.Millisecond)
	if math.IsNaN(ms) || math.IsInf(ms, 0) || d >= math.MaxInt64 {
		return nil, nil, 0, fmt.Errorf("%w: deadline %v ms out of range", spec.ErrInvalid, ms)
	}
	if ms <= 0 {
		// No deadline: the request's own context already cancels on
		// client disconnect, so wrapping it would only add allocation.
		return r.Context(), func() {}, 0, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(d))
	return ctx, cancel, ms, nil
}

// handleAnalyze serves /v1/analyze and, for the token's session,
// /v1/session/{token}/analyze. The body resolves to a system, its
// fingerprint and an options block — binary bodies through the intern
// pool, JSON ones through resolveJSON — which the service (or the
// session's probe handle) analyses. A session probe with an empty
// options block takes the session's default, may not be static, and
// advances the session's edit base only when its analysis succeeds.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	var sess *session
	if token := r.PathValue("token"); token != "" {
		if sess = s.sessions.lookup(token); sess == nil {
			return errNoSession
		}
	}
	body, pb, err := rawBody(r)
	// Everything decoded below is copied out of body (intern/parse
	// memo entries hold decoded systems, never raw bytes), so the
	// buffer can be released when the handler returns.
	defer pb.release()
	if err != nil {
		return err
	}
	if sess != nil {
		// Serialise probes on the session (after the body is read, so a
		// slow client never holds the lock): chained-edit determinism
		// (and the edit base) only exists for sequential probes.
		sess.mu.Lock()
		defer sess.mu.Unlock()
	}
	var (
		sys  *model.System
		opts OptionsSpec
		fp   model.Fingerprint
	)
	if isBinaryMedia(r.Header.Get("Content-Type")) {
		// Binary codec: the body is an options header plus the system's
		// canonical wire bytes. The SHA-256 of those bytes is the
		// system's fingerprint, so one hash both keys the service memo
		// and looks the system up in the intern pool — a repeated
		// system is served with zero decoding. Edits are a JSON shape,
		// so binary probes always carry a full system.
		var sysBytes []byte
		if opts, sysBytes, err = decodeBinaryAnalyzeRequest(body); err == nil {
			sys, fp, err = s.resolveBinarySystem(sysBytes)
		}
	} else {
		sys, fp, opts, err = s.resolveJSON(body, sess)
	}
	if err != nil {
		return err
	}
	if sess != nil {
		if opts == (OptionsSpec{}) {
			opts = sess.opt
		}
		if opts.Static {
			return fmt.Errorf("%w: static analysis is not session-scoped (use /v1/analyze)", spec.ErrInvalid)
		}
	}
	ctx, cancel, dms, err := requestCtx(r, opts)
	if err != nil {
		return err
	}
	defer cancel()
	var res *analysis.Result
	if sess == nil {
		res, err = s.svc.AnalyzeFingerprinted(ctx, fp, sys, opts.analysis(s.def), opts.Static)
	} else {
		res, err = sess.probe.AnalyzeFingerprinted(ctx, fp, sys, opts.analysis(s.def))
	}
	if err != nil {
		return deadlineError{err, dms}
	}
	if sess != nil {
		sess.base = sys
	}
	if isBinaryMedia(r.Header.Get("Accept")) {
		writeBinaryAnalyzeResponse(w, res, elapsedMS(start))
		return nil
	}
	var ss *service.SessionStats
	if sess != nil {
		st := sess.probe.Stats()
		ss = &st
	}
	writeAnalyzeJSON(w, res, opts.Bounds, elapsedMS(start), ss)
	return nil
}

// resolveJSON decodes a JSON analyze body into the resident system,
// its fingerprint and the request's options block. A sessionless body
// carries a full spec (or is a bare spec document) and goes through
// the parse memo: decoding, spec conversion and validation cost more
// than a memo-hit analysis does, so a byte-identical repeated body
// short-circuits on a hash of the raw bytes — which, with the
// fingerprint cached at parse time, is the request's only hash. A
// session's body carries a full spec or an edit against the session's
// last accepted system.
func (s *Server) resolveJSON(body []byte, sess *session) (*model.System, model.Fingerprint, OptionsSpec, error) {
	var key [sha256.Size]byte
	if sess == nil {
		// An empty body is never put (it has no system), so it never hits.
		key = sha256.Sum256(body)
		if cached, ok := s.parse.get(key); ok {
			return cached.sys, cached.fp, cached.opt, nil
		}
	}
	var base *model.System
	if sess != nil {
		base = sess.base
	}
	sys, opts, err := decodeAnalyzeJSON(body, sess != nil, base)
	if err != nil {
		return nil, model.Fingerprint{}, OptionsSpec{}, err
	}
	// Both forms produce a server-owned system (decoded fresh, or an
	// edited clone of the base) that is never mutated, so interning is
	// safe: duplicate posts across connections (and across the JSON
	// and binary codecs) and a probe chain's revisited states collapse
	// onto one resident copy.
	sys, fp := s.svc.Intern(sys)
	if sess == nil {
		s.parse.put(key, sys, fp, opts)
	}
	return sys, fp, opts, nil
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	body, pb, err := rawBody(r)
	if err != nil {
		return err
	}
	var req assignBody
	err = req.decode(body)
	pb.release() // the decoder copies everything it keeps
	if err != nil {
		return err
	}
	if !req.system.set {
		return fmt.Errorf("%w: request has no system", spec.ErrInvalid)
	}
	policy := sched.Policy(req.policy)
	if req.policy == "" {
		policy = sched.PolicyAudsley
	}
	valid := false
	for _, p := range sched.Policies() {
		valid = valid || p == policy
	}
	if !valid {
		return fmt.Errorf("%w: unknown policy %q", spec.ErrInvalid, req.policy)
	}
	sys, err := req.system.draft.System()
	if err != nil {
		return err
	}
	ctx, cancel, dms, err := requestCtx(r, req.options)
	if err != nil {
		return err
	}
	defer cancel()
	res, _, err := sched.Assign(ctx, sys, policy, sched.AssignOptions{
		Analysis:   req.options.analysis(s.def),
		Iterations: req.iterations,
		Service:    s.svc,
	})
	if err != nil {
		return deadlineError{err, dms}
	}
	writeAssignJSON(w, res, sys, req.options.Bounds, elapsedMS(start), string(policy))
	return nil
}

func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	var req MinimizeRequest
	if err := readBody(r, &req); err != nil {
		return err
	}
	if req.System == nil {
		return fmt.Errorf("%w: request has no system", spec.ErrInvalid)
	}
	sys, err := req.System.ToSystem()
	if err != nil {
		return err
	}
	families, err := buildFamilies(req.Families, sys)
	if err != nil {
		return err
	}
	ctx, cancel, dms, err := requestCtx(r, req.Options)
	if err != nil {
		return err
	}
	defer cancel()
	res, err := design.MinimizeContext(ctx, sys, families, design.Options{
		Tolerance: req.Tolerance,
		Passes:    req.Passes,
		Analysis:  req.Options.analysis(s.def),
		Service:   s.svc,
	})
	if err != nil {
		return deadlineError{err, dms}
	}
	resp := &MinimizeResponse{
		Alphas:         res.Alphas,
		TotalBandwidth: res.TotalBandwidth,
		ElapsedMS:      elapsedMS(start),
	}
	for m, p := range res.Platforms {
		resp.Platforms = append(resp.Platforms, spec.PlatformSpec{
			Name: fmt.Sprintf("Pi%d", m+1), Alpha: p.Alpha, Delta: p.Delta, Beta: p.Beta,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// buildFamilies maps the request's family specs to design families;
// an empty list defaults every platform to a polling server whose
// period is a quarter of the shortest transaction period.
func buildFamilies(fs []FamilySpec, sys *model.System) ([]design.Family, error) {
	if len(fs) == 0 {
		period := math.Inf(1)
		for i := range sys.Transactions {
			period = math.Min(period, sys.Transactions[i].Period)
		}
		fam := design.PollingFamily(period / 4)
		out := make([]design.Family, len(sys.Platforms))
		for m := range out {
			out[m] = fam
		}
		return out, nil
	}
	if len(fs) != len(sys.Platforms) {
		return nil, fmt.Errorf("%w: %d families for %d platforms", spec.ErrInvalid, len(fs), len(sys.Platforms))
	}
	out := make([]design.Family, len(fs))
	for m, f := range fs {
		switch f.Kind {
		case "polling":
			if f.Period <= 0 {
				return nil, fmt.Errorf("%w: family %d: polling needs period > 0", spec.ErrInvalid, m+1)
			}
			out[m] = design.PollingFamily(f.Period)
		case "tdma":
			if f.Frame <= 0 {
				return nil, fmt.Errorf("%w: family %d: tdma needs frame > 0", spec.ErrInvalid, m+1)
			}
			out[m] = design.TDMAFamily(f.Frame)
		case "pfair":
			if f.Quantum <= 0 {
				return nil, fmt.Errorf("%w: family %d: pfair needs quantum > 0", spec.ErrInvalid, m+1)
			}
			out[m] = design.PfairFamily(f.Quantum)
		default:
			return nil, fmt.Errorf("%w: family %d: unknown kind %q", spec.ErrInvalid, m+1, f.Kind)
		}
	}
	return out, nil
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) error {
	var req SessionRequest
	if err := readBody(r, &req); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, &SessionResponse{Token: s.sessions.create(s.svc, req.Options).token})
	return nil
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) error {
	sess := s.sessions.lookup(r.PathValue("token"))
	if sess == nil {
		return errNoSession
	}
	writeJSON(w, http.StatusOK, sess.probe.Stats())
	return nil
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) error {
	if !s.sessions.remove(r.PathValue("token")) {
		return errNoSession
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return nil
}

func (s *Server) statsSnapshot() *StatsResponse {
	st := s.svc.Stats()
	resp := &StatsResponse{
		Service:     st,
		HitRate:     st.HitRate(),
		Sessions:    s.sessions.counters(),
		Inflight:    s.inflight.Load(),
		MaxInflight: s.maxInflight,
		UptimeMS:    elapsedMS(s.start),
		Endpoints:   make(map[string]EndpointStats, len(s.metrics)),
	}
	resp.ParseHits = s.parse.hits.Load()
	resp.BinaryHits = s.binHits.Load()
	for name, m := range s.metrics {
		if m.requests.Load() > 0 || m.shed.Load() > 0 {
			resp.Endpoints[name] = m.snapshot()
		}
	}
	return resp
}

func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// Serve runs the server on ln until ctx is cancelled, then drains
// gracefully: the listener closes (new connections are refused),
// in-flight requests finish — or hit their own per-request deadlines —
// within DrainTimeout, stragglers past it are cut off hard, and one
// final stats line is written to logw. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener, logw io.Writer) error {
	// IdleTimeout is negative: zero would inherit ReadTimeout and close
	// idle keep-alive connections after it.
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: readTimeout, ReadTimeout: readTimeout, IdleTimeout: -1}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed on its own; nothing to drain.
		return fmt.Errorf("httpd: %w", err)
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.drain)
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		srv.Close()
	}
	<-errc // Serve has returned ErrServerClosed
	if logw != nil {
		data, _ := json.Marshal(s.statsSnapshot())
		fmt.Fprintf(logw, "httpd: drained; final stats: %s\n", data)
	}
	if err != nil {
		return fmt.Errorf("httpd: drain: %w", err)
	}
	return nil
}
