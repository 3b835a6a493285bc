package service

import (
	"context"
	"sync"

	"hsched/internal/analysis"
	"hsched/internal/model"
)

// SessionStats is a snapshot of one session's probe counters. Every
// probe is counted exactly once as either a memo hit (answered without
// running an analysis — from the verdict memo or by waiting on a
// concurrent identical query) or an executed analysis, of which
// DeltaHits ran incrementally: MemoHits + Executed == Probes.
// Like Stats, the json tags are a stable wire contract — the HTTP
// server's per-session stats endpoint emits them and remote probe
// clients assert on them.
type SessionStats struct {
	// Probes is the number of Analyze* calls issued through the
	// session.
	Probes int64 `json:"probes"`
	// MemoHits counts probes answered without running an analysis.
	MemoHits int64 `json:"memo_hits"`
	// Executed counts probes that ran (or errored in) an analysis.
	Executed int64 `json:"executed"`
	// DeltaHits counts the subset of Executed that rode the
	// incremental path, seeded by the session's pinned previous result.
	DeltaHits int64 `json:"delta_hits"`
	// RoundsSaved accumulates the per-task response-time computations
	// the session's delta hits skipped (analysis.DeltaInfo.
	// TaskRoundsSaved summed over all delta hits).
	RoundsSaved int64 `json:"rounds_saved"`
}

// Session is a pinned-seed probe handle on a Service, for search loops
// that analyse chains of one-edit-apart systems: priority-assignment
// searches probing one priority move at a time (package sched), the
// design search moving one platform's bandwidth (package design), an
// admission controller trialling one transaction.
//
// Sessions are the service's only delta path: a plain Service query
// runs cold on a memo miss, while a Session holds the caller's
// previous *Result (with its replay state intact) as the explicit seed
// of the next probe, so chained one-edit probes ride
// Engine.AnalyzeFrom deterministically. Results are bit-identical
// either way; only the work profile changes.
//
// Sessions are cheap (one pointer plus counters): create one per
// search, not one per process. A session's probes flow through the
// owning service's memo, in-flight table and stripes, and count
// into ServiceStats like any other query; SessionStats additionally
// attributes this session's share. A probe's memo hit does not mark
// the entry used, though: it is a search revisiting its own recent
// probe, so the entry still leaves through the memo's probation
// instead of filling its main region. Like the Service itself a Session
// is safe for concurrent use, but its pinned seed is a single slot —
// concurrent probes race to pin it, so chained-edit determinism is
// only guaranteed for sequential probes (the search-loop shape it
// exists for).
//
// The pinned seed keeps one full Result (with replay history) alive
// until the next executed probe replaces it or Drop releases it.
type Session struct {
	svc *Service

	mu    sync.Mutex
	seed  *analysis.Result
	stats SessionStats
}

// NewSession returns a probe session on the service. See Session.
func (s *Service) NewSession() *Session { return &Session{svc: s} }

// Analyze probes the holistic dynamic-offset analysis of sys under the
// service's default options, seeding the incremental path with the
// session's previous result.
func (ss *Session) Analyze(ctx context.Context, sys *model.System) (*analysis.Result, error) {
	return ss.svc.analyze(ctx, sys, ss.svc.opt.Analysis, false, ss)
}

// AnalyzeOptions is Analyze with per-probe analysis options. A session
// probed under several option sets pins only the most recent result;
// the analysis re-verifies seed compatibility (same semantics-affecting
// options), so mixing option sets costs delta hits, never correctness.
func (ss *Session) AnalyzeOptions(ctx context.Context, sys *model.System, opt analysis.Options) (*analysis.Result, error) {
	return ss.svc.analyze(ctx, sys, opt, false, ss)
}

// AnalyzeFingerprinted is AnalyzeOptions for callers that already hold
// sys.Fingerprint() — typically the SHA-256 of the probe's canonical
// wire bytes — and must not pay a second encoding-and-hash pass (see
// Service.AnalyzeFingerprinted).
func (ss *Session) AnalyzeFingerprinted(ctx context.Context, fp model.Fingerprint, sys *model.System, opt analysis.Options) (*analysis.Result, error) {
	return ss.svc.analyzeFP(ctx, fp, sys, opt, false, ss)
}

// Stats returns a snapshot of the session's probe counters.
func (ss *Session) Stats() SessionStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.stats
}

// Drop unpins the session's seed, releasing the replay history it
// keeps alive. The next probe that misses the memo runs cold.
// Counters are preserved.
func (ss *Session) Drop() {
	ss.mu.Lock()
	ss.seed = nil
	ss.mu.Unlock()
}

// currentSeed returns the pinned seed, or nil. The analysis re-checks
// replay soundness (option key, structural overlap) on every use, so a
// stale or mismatched seed degrades to a cold run, never to a wrong
// result.
func (ss *Session) currentSeed() *analysis.Result {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.seed
}

// noteProbe counts one probe issued through the session.
func (ss *Session) noteProbe() {
	ss.mu.Lock()
	ss.stats.Probes++
	ss.mu.Unlock()
}

// noteHit counts one probe answered without running an analysis.
func (ss *Session) noteHit() {
	ss.mu.Lock()
	ss.stats.MemoHits++
	ss.mu.Unlock()
}

// noteExecuted records one executed analysis: its delta profile (when
// it ran incrementally) and, when the result carries replay state, the
// new pinned seed. full is the un-stripped result; it may be nil on
// error.
func (ss *Session) noteExecuted(full *analysis.Result) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.stats.Executed++
	if full == nil {
		return
	}
	if full.Delta != nil {
		ss.stats.DeltaHits++
		ss.stats.RoundsSaved += int64(full.Delta.TaskRoundsSaved)
	}
	if full.HasReplayState() {
		ss.seed = full
	}
}
