// Package service is the long-running, concurrency-safe front-end to
// the schedulability analysis: the building block for serving
// admission-control-style queries at traffic scale (the ROADMAP's
// north star), where many callers keep asking "is this system
// schedulable?" about overlapping populations of systems that mutate
// one transaction at a time.
//
// A query descends a ladder of progressively more expensive paths:
//
//	query(sys, opts)
//	  │  fingerprint + normalised-options key
//	  ▼
//	verdict memo ──────────── hit ──► shared *Result      (~µs)
//	  │ miss
//	  ▼
//	in-flight table ───────── dup ──► wait on leader      (~analysis)
//	  │ leader
//	  ▼
//	session delta ── pinned seed ───► AnalyzeFrom:        (fraction of
//	  │ no session                      copy tasks whose     a cold run)
//	  │                                 inputs match
//	  ▼
//	pooled engine ──────────────────► cold Analyze        (full work)
//	                                    │ exact sweeps stream from a
//	                                    │ mixed-radix cursor, jump
//	                                    │ refuted subtrees via admissible
//	                                    │ per-initiator bounds (Stats.
//	                                    ▼ ScenariosPruned / SubtreesPruned)
//
// State is placed by how it is looked up. Everything looked up by
// fingerprint — the memo, the in-flight table and the intern pool —
// lives in Options.Shards stripes routed by fingerprint, so one query
// takes exactly one stripe mutex. The only delta seed is a Session's
// pinned result, held by the session. The service keeps no engines.
//
// The mechanisms, top to bottom:
//
//   - a lock-striped verdict memo of detached *analysis.Results keyed
//     by (fingerprint, normalised options), each stripe holding its
//     slice of the capacity.
//     Options.ReplayKey materialises defaulted fields, so a
//     zero-value Options and an explicitly-spelled-default Options
//     share an entry; Workers is excluded from keys (results are
//     identical for every worker count) and Recorder queries bypass
//     the memo (a hit would silence their callbacks). Keys mask the
//     stop rule (Goal, StopAtDeadlineMiss) of every result that did
//     not stop, so a query with a stop and a stop-free one share the
//     fixed point; a stopped result, whose bounds are lower bounds,
//     lives under its query's own key, which a stop-free query never
//     looks up. Memo hits
//     return a shared pointer — treat cached Results as read-only —
//     and are allocation-free: a hit reads the stripe's index under
//     its mutex and records recency by setting the entry's CLOCK bit
//     (an atomic, touched outside the lock) instead of reordering a
//     list. Each stripe's memo is an internal/cache Clock, the one
//     bounded map every layer here and in internal/httpd uses. A new
//     verdict waits in a probation FIFO (a tenth of the capacity, or
//     half of it up to 256 entries where that is more) and reaches the
//     main region only if it is hit there or its key was dropped from
//     probation recently, so verdicts nobody asks for again never fill
//     the memo. Main's eviction is second-chance:
//     the evictor scans from the cold end, rotates touched entries
//     back with their bit cleared, and evicts the first untouched
//     entry — never the entry being inserted;
//
//   - singleflight-style deduplication: concurrent identical queries
//     block on the first one's in-flight analysis instead of running
//     their own, and are counted as hits. If the in-flight leader is
//     cancelled, a waiting caller whose own context is still live
//     retries and becomes the new leader;
//
//   - session delta: a Session's miss is seeded with the session's
//     pinned previous result and runs analysis.AnalyzeFromContext,
//     which copies from the seed's recorded rounds every task whose
//     inputs match them and recomputes only the rest — bit-identical
//     to a cold analysis, a fraction of the work. A miss
//     without a session runs cold, and since only a session's executed
//     probe can become a seed, it records no replay history
//     (analysis.Options.DisableReplayState). Stats.DeltaHits counts the
//     analyses served this way and Stats.RoundsSaved the per-task
//     response computations the copies replaced;
//
//   - one analysis at a time per stripe. Every miss calls the
//     package-level analysis entry points, which draw an engine from
//     the analysis package's pool: engines amortise the buffers of
//     their transaction-keyed slabs (interference rows, bounds, round
//     buffers) across calls and carry no values from one analysis to
//     the next, so the service need not keep any. Each stripe holds a
//     run slot across its analysis, so at most Options.Shards
//     analyses — and so at most that many engines' buffers and replay
//     histories — are live at once, while distinct systems analyse
//     concurrently on other stripes. A query waiting for its stripe's
//     run slot still honours its context;
//
//   - a fingerprint-keyed intern pool (Intern, InternFingerprinted,
//     Interned; sized by Options.Capacity) sitting in front of the
//     ladder for callers that decode systems from bytes. Interning a
//     system returns the canonical resident *model.System for its
//     fingerprint, so a population of duplicate-heavy traffic (an
//     admission controller re-posting the same systems, the httpd
//     transport's binary codec) collapses to one resident copy per
//     distinct system — and a transport that already knows the
//     fingerprint (the SHA-256 of the canonical wire bytes IS the
//     fingerprint; see model.System.MarshalBinary) answers a repeat
//     without decoding at all. The pool is one more Clock per stripe,
//     beside the memo under the same stripe mutex, so a system decoded
//     once leaves through probation and main's eviction takes the
//     first resident not looked up since the last sweep.
//     Interned systems must never be
//     mutated. Stats reports InternHits, InternMisses and Resident
//     (a gauge: distinct systems currently pooled).
//
// Search loops — the priority-assignment searches of package sched,
// the bandwidth minimisation of package design, an admission
// controller trialling edits — probe chains of one-edit-apart systems
// and should hold a Session (NewSession): the session pins the
// caller's previous result as the explicit seed of the next probe, so
// the chained probes ride the incremental path deterministically,
// and SessionStats attributes the session's share of the traffic
// (probes, memo hits, executed analyses, delta hits, rounds saved).
// The pinned result carries replay history only: no exact sweep
// carries state from an earlier sweep, so a miss does the same work
// whichever session or earlier query it follows.
//
// Every entry point takes a context.Context and cancels the underlying
// analysis promptly (see analysis.Engine.AnalyzeContext for the
// polling points). Stats exposes queries, hits, misses, evictions,
// in-flight dedups, delta hits, rounds saved, scenarios and subtrees
// pruned (the exact sweeps' branch-and-bound savings — per-scenario
// skips and whole-subtree cursor jumps — summed over executed
// analyses) and interference evaluations (the analysis kernel's W^k_i
// terms, summed the same way). The counters are individually-padded atomics, bumped
// without any lock; Stats reads them without stopping traffic, so a
// mid-traffic snapshot is a consistent-enough view rather than an
// instantaneous one (attribution lands before the query count, and
// the snapshot reads Queries first, so Hits+Misses ≥ Queries in any
// snapshot). At quiescence Hits + Misses == Queries exactly, Misses
// is exactly the number of analyses executed, and DeltaHits ⊆ Misses
// — which is what the design-search and benchmark tests assert on.
//
// The heavy consumers are wired through this package: sched.Audsley
// and sched.HOPA probe their schedulability oracle through a Session
// (one-priority-move probes delta-hit: a priority-only edit keeps its
// transaction matched to the seed, revisited assignments memo-hit),
// design.Minimize routes its feasibility oracle the same way
// (revisited points memo-hit, fresh
// one-platform-apart probes delta-hit), the experiments acceptance and
// policy sweeps share one Service across their workers,
// experiments.AdmissionChurn replays the canonical admit/retune/drop
// workload through one session, and the hsched façade's package-level
// Analyze/AnalyzeStatic are thin wrappers over a process-wide default
// Service.
//
// Out-of-process callers get the same ladder over HTTP: the
// internal/httpd server (CLI: `hsched serve`) routes its analyze,
// assign and minimize endpoints through one shared Service, and its
// per-client session tokens are Sessions — a remote probe chain of
// diff-shaped edits rides the pinned-seed incremental path exactly
// like an in-process search loop, with SessionStats reported in every
// response. The json tags on Stats and SessionStats are that wire
// contract.
package service
