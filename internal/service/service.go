package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hsched/internal/analysis"
	"hsched/internal/cache"
	"hsched/internal/model"
)

// Options configures a Service.
type Options struct {
	// Shards is the number of stripes the service's state is split
	// into. Each stripe owns one slice of the verdict memo, in-flight
	// table and intern pool behind a short-held mutex, plus one set of
	// resident analysis engines behind a long-held one; queries are
	// routed by system fingerprint, so one fingerprint touches exactly
	// one stripe — repeated queries on the same system land on the same
	// warm engine while distinct systems spread across stripes and run
	// concurrently. 0 selects runtime.GOMAXPROCS(0).
	Shards int

	// Capacity bounds the verdict memo in entries (whole detached
	// Results), divided evenly across stripes. 0 selects 4096; a
	// negative value disables memoisation entirely (every query runs an
	// analysis) while keeping the engine pool and in-flight
	// deduplication.
	Capacity int

	// Analysis is the default analysis configuration used by Analyze
	// and AnalyzeStatic; AnalyzeOptions overrides it per query.
	Analysis analysis.Options

	// DisableDelta turns the incremental path off: engines record no
	// replay state and sessions never pin a seed, so every miss runs
	// cold. By default a Session's miss is seeded with the session's
	// previous result and routed through Engine.AnalyzeFrom, which
	// replays the unchanged transactions' state instead of recomputing
	// it — the fast path for search loops and admission controllers
	// that mutate one transaction at a time. A query without a session
	// always runs cold on a miss.
	DisableDelta bool

	// InternCapacity bounds the fingerprint-keyed intern pool of
	// canonical resident systems (see Intern) in entries, divided
	// evenly across stripes. 0 selects 4096; a negative value disables
	// interning (Intern returns its argument unchanged).
	InternCapacity int
}

func (o Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) capacity() int {
	switch {
	case o.Capacity < 0:
		return 0
	case o.Capacity == 0:
		return 4096
	default:
		return o.Capacity
	}
}

func (o Options) internCapacity() int {
	switch {
	case o.InternCapacity < 0:
		return 0
	case o.InternCapacity == 0:
		return 4096
	default:
		return o.InternCapacity
	}
}

// perStripe divides a total capacity over n stripes, rounding up so a
// positive total stays positive on every stripe (the bound becomes
// "at most ceil(total/n) per stripe", i.e. total rounded up to a
// multiple of n overall). Zero stays zero: disabled is disabled.
func perStripe(total, n int) int {
	if total <= 0 {
		return 0
	}
	return (total + n - 1) / n
}

// Stats is a snapshot of the service's counters. Every query is
// counted exactly once as either a hit (served from the memo, or from
// a concurrent duplicate's in-flight analysis) or a miss (it ran an
// analysis), so Hits + Misses == Queries at quiescence; Misses is the
// number of analyses the engines actually executed.
//
// The json tags are a stable wire contract: /v1/stats (internal/httpd)
// and `hsched bench -json` emit these lowercase names, and clients
// (bench -remote, dashboards) parse them — renaming one is a breaking
// API change, not a refactor.
type Stats struct {
	// Queries is the total number of Analyze* calls accepted.
	Queries int64 `json:"queries"`
	// Hits counts queries answered without running an analysis.
	Hits int64 `json:"hits"`
	// Misses counts queries that ran (or errored in) an analysis.
	Misses int64 `json:"misses"`
	// Evictions counts memo entries displaced by the memo's segmented
	// CLOCK eviction, verdicts never hit that leave probation included
	// (see internal/cache).
	Evictions int64 `json:"evictions"`
	// InflightDedups counts the subset of Hits that were answered by
	// waiting on a concurrent identical query instead of the memo.
	InflightDedups int64 `json:"inflight_dedups"`
	// DeltaHits counts the subset of Misses whose analysis ran
	// incrementally, seeded by a session's pinned previous result —
	// same result bits, a fraction of the work.
	DeltaHits int64 `json:"delta_hits"`
	// RoundsSaved accumulates the per-task response-time computations
	// the delta hits skipped by replaying unchanged transactions
	// (analysis.DeltaInfo.TaskRoundsSaved summed over all delta hits)
	// — the service-level measure of how much fixed-point work the
	// incremental path avoided.
	RoundsSaved int64 `json:"rounds_saved"`
	// ScenariosPruned accumulates the exact scenario vectors the
	// analyses this service executed skipped via the admissible sweep
	// prune (analysis.Result.ScenariosPruned summed over all misses) —
	// the branch-and-bound counterpart of RoundsSaved for the cold
	// exact path. Always 0 for purely approximate traffic.
	ScenariosPruned int64 `json:"scenarios_pruned"`
	// SubtreesPruned accumulates the whole cursor subtrees the exact
	// sweeps refuted with a single per-initiator bound instead of
	// per-scenario checks (analysis.Result.SubtreesPruned summed over
	// all misses). ScenariosPruned/SubtreesPruned is the average
	// refuted-subtree size. Always 0 for purely approximate traffic.
	SubtreesPruned int64 `json:"subtrees_pruned"`
	// InterferenceEvals accumulates the W^k_i interference terms the
	// analyses this service executed evaluated
	// (analysis.Result.InterferenceEvals summed over all misses) — the
	// analysis kernel's work count, per miss the cost of one cold or
	// delta analysis.
	InterferenceEvals int64 `json:"interference_evals"`
	// InternHits counts Intern/Interned calls answered by an existing
	// resident system — each one a decoded copy that collapsed onto
	// the canonical pointer (and, on the binary HTTP path, a request
	// that needed zero decoding).
	InternHits int64 `json:"intern_hits"`
	// InternMisses counts Intern calls that installed their argument
	// as a new resident.
	InternMisses int64 `json:"intern_misses"`
	// Resident is a gauge (not a counter): the number of distinct
	// systems currently resident in the intern pool. A workload of any
	// number of duplicate posts of one system holds it at 1.
	Resident int64 `json:"intern_resident"`
}

// HitRate returns Hits/Queries, or 0 before the first query.
func (st Stats) HitRate() float64 {
	if st.Queries == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Queries)
}

// counter is a cache-line-padded atomic counter. The padding keeps
// adjacent counters out of each other's cache line, so two cores
// bumping different counters never ping-pong a line between them —
// stats accounting takes no lock and causes no false sharing.
type counter struct {
	atomic.Int64
	_ [56]byte // 8 (Int64) + 56 = 64, one cache line per counter
}

// counters is the service's live tally, one padded atomic per Stats
// field.
//
// Counting protocol: each query increments exactly one attribution
// counter — hits (memo hit or in-flight dedup, the latter also bumping
// inflightDedups) or misses (it became an analysis leader, or is a
// recorder bypass) — at the point its outcome is decided, and then
// increments queries. A dedup waiter whose leader is cancelled loops
// back uncounted and is attributed at its eventual resolution, so the
// exactly-once guarantee needs no per-call flag. Because attribution
// always precedes the queries bump and Stats loads queries first, a
// concurrent snapshot satisfies Hits + Misses ≥ Queries at every
// instant, with equality at quiescence.
type counters struct {
	queries           counter
	hits              counter
	misses            counter
	evictions         counter
	inflightDedups    counter
	deltaHits         counter
	roundsSaved       counter
	scenariosPruned   counter
	subtreesPruned    counter
	interferenceEvals counter
	internHits        counter
	internMisses      counter
	resident          counter // gauge: intern residents, all stripes
}

// optKey is the comparable form of normalised analysis options used in
// cache keys: analysis.ReplayKey — the package's single enumeration of
// semantics-affecting option fields, so a future field is respected
// here automatically — plus the static bit. Workers is absent from
// ReplayKey by construction: results are bit-identical for every
// worker count, so queries differing only in Workers share one memo
// entry. Recorder is likewise absent (recorder queries bypass the
// memo). static distinguishes the one-pass static analysis from the
// holistic iteration — same system, different semantics.
type optKey struct {
	rk     analysis.ReplayKey
	static bool
}

func keyOf(opt analysis.Options, static bool) optKey {
	return optKey{rk: opt.ReplayKey(), static: static}
}

// cacheKey identifies one memoisable verdict: the canonical system
// fingerprint plus the normalised analysis options.
type cacheKey struct {
	fp  model.Fingerprint
	opt optKey
}

// engineKey identifies one resident engine within a stripe. Unlike the
// cache key it includes Workers, because an engine is constructed with
// a fixed worker bound.
type engineKey struct {
	opt     optKey
	workers int
}

// inflight is one in-progress analysis that concurrent identical
// queries wait on instead of re-running it. res and err are written
// before done is closed.
type inflight struct {
	done chan struct{}
	res  *analysis.Result
	err  error
}

// stripe owns one fingerprint slice of the per-system service state:
// the memo, the in-flight table, the intern pool and the resident
// engines. Routing is model.Fingerprint.Shard, so one fingerprint
// touches exactly one stripe and a query acquires at most one stripe
// mutex. The two locks have very different hold times:
//
//   - mu guards the memo, the in-flight table and the intern pool —
//     map operations only, never held across an analysis, and taken
//     exactly once per memoised query (a cache.Clock has no lock of
//     its own);
//   - engMu guards the resident engines and IS held across an
//     analysis (engines are single-goroutine), so a long cold run
//     never blocks the stripe's hit path.
type stripe struct {
	mu       sync.Mutex
	memo     *cache.Clock[cacheKey, *analysis.Result]
	inflight map[cacheKey]*inflight
	intern   *cache.Clock[model.Fingerprint, *model.System] // nil: interning disabled

	engMu   sync.Mutex
	engines map[engineKey]*analysis.Engine

	_ [64]byte // keep neighbouring stripes' mutexes off one cache line
}

// Service is a concurrency-safe front-end over a pool of resident
// analysis engines: the long-running "admission control" shape of the
// ROADMAP. It routes each query to a stripe by system fingerprint,
// memoises detached Results in per-stripe CLOCK caches keyed by
// (fingerprint, normalised options), and deduplicates concurrent
// identical queries singleflight-style so the analysis runs once.
//
// Returned *Results are shared: a memo hit hands the same pointer to
// every caller, so treat them as read-only. Callers that need a
// private mutable copy should run their own analysis.Engine.
//
// The zero value is not usable; construct with New.
type Service struct {
	opt Options

	// stripes is the fingerprint-routed state.
	stripes []stripe

	ctr counters
}

// New constructs a Service with the given options.
func New(opt Options) *Service {
	n := opt.shards()
	s := &Service{opt: opt, stripes: make([]stripe, n)}
	capPerStripe := perStripe(opt.capacity(), n)
	internPerStripe := perStripe(opt.internCapacity(), n)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.memo = cache.New[cacheKey, *analysis.Result](capPerStripe)
		st.inflight = make(map[cacheKey]*inflight)
		st.engines = make(map[engineKey]*analysis.Engine)
		if internPerStripe > 0 {
			st.intern = cache.New[model.Fingerprint, *model.System](internPerStripe)
		}
	}
	return s
}

func (s *Service) stripeFor(fp model.Fingerprint) *stripe {
	return &s.stripes[fp.Shard(len(s.stripes))]
}

// Analyze runs (or recalls) the holistic dynamic-offset analysis of
// sys under the service's default options. It is safe for concurrent
// use; ctx cancels the underlying analysis promptly.
func (s *Service) Analyze(ctx context.Context, sys *model.System) (*analysis.Result, error) {
	return s.analyze(ctx, sys, s.opt.Analysis, false, nil)
}

// AnalyzeOptions is Analyze with per-query analysis options.
func (s *Service) AnalyzeOptions(ctx context.Context, sys *model.System, opt analysis.Options) (*analysis.Result, error) {
	return s.analyze(ctx, sys, opt, false, nil)
}

// AnalyzeStatic runs (or recalls) the one-pass static-offset analysis
// of sys under the service's default options.
func (s *Service) AnalyzeStatic(ctx context.Context, sys *model.System) (*analysis.Result, error) {
	return s.analyze(ctx, sys, s.opt.Analysis, true, nil)
}

// AnalyzeStaticOptions is AnalyzeStatic with per-query options.
func (s *Service) AnalyzeStaticOptions(ctx context.Context, sys *model.System, opt analysis.Options) (*analysis.Result, error) {
	return s.analyze(ctx, sys, opt, true, nil)
}

// AnalyzeFingerprinted is AnalyzeOptions (static selects the one-pass
// static-offset analysis) for callers that already hold the system's
// fingerprint — typically the SHA-256 of its canonical wire bytes —
// and must not pay a second encoding-and-hash pass. fp must equal
// sys.Fingerprint(); an inconsistent pair poisons the verdict memo for
// that fingerprint. The binary HTTP path rides this: hash the request
// body once, look the system up in the intern pool, and analyse, with
// no per-request fingerprint encoding at all.
func (s *Service) AnalyzeFingerprinted(ctx context.Context, fp model.Fingerprint, sys *model.System, opt analysis.Options, static bool) (*analysis.Result, error) {
	return s.analyzeFP(ctx, fp, sys, opt, static, nil)
}

// Stats returns a snapshot of the service counters. Queries is loaded
// first: attribution counters are bumped before queries (see the
// counters doc), so the snapshot never shows a query that has not been
// attributed — Hits + Misses ≥ Queries transiently, == at quiescence.
func (s *Service) Stats() Stats {
	st := Stats{Queries: s.ctr.queries.Load()}
	st.Hits = s.ctr.hits.Load()
	st.Misses = s.ctr.misses.Load()
	st.Evictions = s.ctr.evictions.Load()
	st.InflightDedups = s.ctr.inflightDedups.Load()
	st.DeltaHits = s.ctr.deltaHits.Load()
	st.RoundsSaved = s.ctr.roundsSaved.Load()
	st.ScenariosPruned = s.ctr.scenariosPruned.Load()
	st.SubtreesPruned = s.ctr.subtreesPruned.Load()
	st.InterferenceEvals = s.ctr.interferenceEvals.Load()
	st.InternHits = s.ctr.internHits.Load()
	st.InternMisses = s.ctr.internMisses.Load()
	st.Resident = s.ctr.resident.Load()
	return st
}

// Reset drops every memo entry and every resident engine, releasing
// the memory they pin, and forgets the memo's and intern pool's ghosts,
// so the service admits like a new one; counters are preserved.
// In-flight analyses are unaffected (their results simply land in the
// fresh memo). Long-lived
// processes that query the service in bursts over disjoint system
// populations can call it between bursts.
func (s *Service) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.memo.Clear()
		if st.intern != nil {
			s.ctr.resident.Add(-int64(st.intern.Len()))
			st.intern.Clear()
		}
		st.mu.Unlock()
		st.engMu.Lock()
		clear(st.engines)
		st.engMu.Unlock()
	}
}

func (s *Service) analyze(ctx context.Context, sys *model.System, opt analysis.Options, static bool, sess *Session) (*analysis.Result, error) {
	// No up-front Validate: the engine validates on every miss, and an
	// invalid system can never collide with a valid system's
	// fingerprint (the fingerprint covers every field validation
	// reads), so the hit path skips the check — it is the single most
	// expensive part of a memoised query.
	return s.analyzeFP(ctx, sys.Fingerprint(), sys, opt, static, sess)
}

// analyzeFP is the query ladder proper; fp must be sys.Fingerprint(),
// computed by the caller exactly once per request.
func (s *Service) analyzeFP(ctx context.Context, fp model.Fingerprint, sys *model.System, opt analysis.Options, static bool, sess *Session) (*analysis.Result, error) {
	if sess != nil {
		sess.noteProbe()
	}
	if opt.Recorder != nil {
		// Recorder queries want their per-iteration callbacks fired,
		// which a memo hit would silence; they bypass both the memo
		// and the resident engines (an engine is constructed with its
		// recorder baked in).
		s.ctr.misses.Add(1)
		s.ctr.queries.Add(1)
		res, err := s.runFresh(ctx, sys, opt, static)
		if sess != nil {
			sess.noteExecuted(res)
		}
		if err == nil {
			s.countWork(res)
		}
		return res, err
	}

	key := cacheKey{fp: fp, opt: keyOf(opt, static)}
	st := s.stripeFor(fp)
	for {
		// The memoised hit path: one stripe-mutex acquisition, held for
		// a map lookup and a pointer read only. res must be read under
		// the lock (a Put may refresh it); the CLOCK touch and all
		// counting are lock-free and happen after release.
		st.mu.Lock()
		if e := st.memo.Get(key); e != nil {
			res := e.Value()
			st.mu.Unlock()
			e.Touch()
			s.ctr.hits.Add(1)
			s.ctr.queries.Add(1)
			if sess != nil {
				sess.noteHit()
			}
			return res, nil
		}
		if fl, ok := st.inflight[key]; ok {
			// A concurrent identical query is already analysing; wait
			// for it instead of burning a second engine. Attribution
			// happens at resolution: a query that ends here — result,
			// leader error, or its own cancellation — ran no analysis
			// and counts as a hit; one that loops back to become the
			// new leader is attributed there instead.
			st.mu.Unlock()
			dedupHit := func() {
				s.ctr.hits.Add(1)
				s.ctr.inflightDedups.Add(1)
				s.ctr.queries.Add(1)
				if sess != nil {
					sess.noteHit()
				}
			}
			select {
			case <-fl.done:
			case <-ctx.Done():
				dedupHit()
				return nil, fmt.Errorf("service: %w", ctx.Err())
			}
			if fl.err != nil {
				if ctxErr(fl.err) && ctx.Err() == nil {
					// The leader was cancelled but this caller was
					// not: its query is still owed an answer, so loop
					// and take the leader role (or find a newer one).
					continue
				}
				dedupHit()
				return nil, fl.err
			}
			dedupHit()
			return fl.res, nil
		}
		fl := &inflight{done: make(chan struct{})}
		st.inflight[key] = fl
		st.mu.Unlock()
		s.ctr.misses.Add(1)
		s.ctr.queries.Add(1)

		// A session's pinned previous result seeds an incremental
		// analysis. The engine re-verifies soundness and falls back
		// transparently, so a bad seed only costs the plan.
		var seed *analysis.Result
		if sess != nil {
			seed = sess.currentSeed()
		}

		res, err := s.run(ctx, st, sys, opt, static, seed)
		if sess != nil {
			sess.noteExecuted(res)
		}

		// Callers and the memo receive the result stripped of its
		// replay history; only a session's pinned seed keeps the full
		// version, so the memo's thousands of entries never pin
		// unreachable histories.
		shared := res
		if err == nil {
			shared = res.WithoutReplayState()
		}

		fl.res, fl.err = shared, err
		evicted := false
		st.mu.Lock()
		delete(st.inflight, key)
		if err == nil {
			_, evicted = st.memo.Put(key, shared)
		}
		st.mu.Unlock()
		if evicted {
			s.ctr.evictions.Add(1)
		}
		if err == nil {
			if res.Delta != nil {
				s.ctr.deltaHits.Add(1)
				s.ctr.roundsSaved.Add(int64(res.Delta.TaskRoundsSaved))
			}
			s.countWork(res)
		}
		close(fl.done)
		return shared, err
	}
}

// countWork adds an executed analysis's work profile to the counters.
func (s *Service) countWork(res *analysis.Result) {
	if res.ScenariosPruned > 0 {
		s.ctr.scenariosPruned.Add(res.ScenariosPruned)
	}
	if res.SubtreesPruned > 0 {
		s.ctr.subtreesPruned.Add(res.SubtreesPruned)
	}
	if res.InterferenceEvals > 0 {
		s.ctr.interferenceEvals.Add(res.InterferenceEvals)
	}
}

// maxEnginesPerStripe bounds the resident engines one stripe keeps. A
// serving process normally sees a handful of option sets, but nothing
// stops clients from sending per-query options (distinct Epsilon or
// Workers values), and each engine pins interference caches and
// scratch buffers for the process lifetime — so past the bound an
// arbitrary resident engine is dropped and rebuilt on demand, which
// only costs the warm-up of the next analysis with its options.
const maxEnginesPerStripe = 8

// run executes one analysis on the resident engine of the query's
// stripe, constructing the engine on first use. A non-nil seed routes
// the analysis through the incremental path; the engine falls back to
// a cold run when the seed turns out not to be soundly replayable.
func (s *Service) run(ctx context.Context, st *stripe, sys *model.System, opt analysis.Options, static bool, seed *analysis.Result) (*analysis.Result, error) {
	// Workers is resolved to its effective value for the engine key so
	// Workers:0 and an explicit Workers:GOMAXPROCS share one engine.
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ek := engineKey{opt: keyOf(opt, false), workers: workers}
	st.engMu.Lock()
	defer st.engMu.Unlock()
	eng, ok := st.engines[ek]
	if !ok {
		for k := range st.engines {
			if len(st.engines) < maxEnginesPerStripe {
				break
			}
			delete(st.engines, k)
		}
		engOpt := opt.Normalised()
		// With the delta path disabled no Result will ever be used as
		// a seed, so don't pay for recording replay state. The flag is
		// uniform per service, so it cannot alias engines across
		// settings.
		engOpt.DisableReplayState = s.opt.DisableDelta
		eng = analysis.NewEngine(engOpt)
		st.engines[ek] = eng
	}
	switch {
	case static:
		return eng.AnalyzeStaticContext(ctx, sys)
	case seed != nil:
		return eng.AnalyzeFromContext(ctx, seed, sys)
	default:
		return eng.AnalyzeContext(ctx, sys)
	}
}

// runFresh executes one analysis on a throwaway engine (recorder
// queries only — the recorder is baked into the engine's options).
// Recorder results never become session seeds, so replay state is
// never recorded for them.
func (s *Service) runFresh(ctx context.Context, sys *model.System, opt analysis.Options, static bool) (*analysis.Result, error) {
	opt.DisableReplayState = true
	eng := analysis.NewEngine(opt)
	if static {
		return eng.AnalyzeStaticContext(ctx, sys)
	}
	return eng.AnalyzeContext(ctx, sys)
}

// ctxErr reports whether err is (or wraps) a context cancellation or
// deadline error.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
