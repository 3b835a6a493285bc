// Package analysis implements the schedulability analysis of Section 3
// of Lorente, Lipari & Bini, "A Hierarchical Scheduling Model for
// Component-Based Real-Time Systems" (IPDPS 2006): worst-case response
// times of transactions whose tasks execute on abstract computing
// platforms (α, Δ, β).
//
// The analysis generalises the holistic / offset-based response-time
// analysis of Tindell & Clark and Palencia & González Harbour: all
// execution times are scaled by 1/α of the platform of the task under
// analysis, every busy period additionally pays the platform delay Δ
// once, and only tasks mapped to the same platform interfere (Eq. 17).
//
// # The Engine
//
// All entry points are built on Engine, a reusable analysis engine
// constructed with NewEngine. The engine owns every piece of
// per-analysis scratch state — the working copy of the system, the
// higher-priority interference cache of Eq. (17), reduced-offset and
// best-bound buffers, the per-round result matrices, and a pool of
// per-task scenario buffers — and amortises all of it across calls.
// Consecutive analyses of systems with the same task counts reuse
// every buffer, which makes the hot callers (acceptance-ratio sweeps,
// the MinimizeBandwidth design search, sensitivity probes)
// allocation-free on the analysis path. Buffers cross analyses,
// values never: every analysis rebuilds what it reads, so its bounds
// and work counts are those of a fresh engine.
//
// Each round of the holistic fixed point runs as an explicit pipeline:
//
//  1. interference construction — bind the working system, rebuild
//     the hp cache in place, refresh the reduced offsets of Eq. (10);
//  2. scenario enumeration — per task, loop over the Na+1 candidate
//     initiators of the approximate analysis (Sec. 3.1.2), or stream
//     the exact scenario product (Sec. 3.1.1) from a mixed-radix
//     cursor, skipping the subtrees whose admissible bound of
//     Eq. (15) cannot beat the running best; each sweep starts from
//     nothing, and the result is the first maximum over every
//     scenario, bit for bit, which the tests check against a naive
//     sweep that evaluates each one;
//  3. per-task response — the tasks of a round are independent, so
//     their response times (Eq. 13-16) are computed on
//     Options.Workers goroutines via the batch runner and collected
//     in task index order, making the result bit-identical for every
//     worker count. Each task's computation first builds its phase
//     table (see phaseTable), so the fixed points evaluate only the
//     ceiling term of Eq. (11) per step, and every scenario's shared
//     first step reads its interference from the table's L0 row;
//  4. jitter propagation — Eq. (18) rewrites every non-initial task's
//     jitter from its predecessor's previous-round response and the
//     loop repeats until the responses reach a fixed point.
//
// Responses never decrease from one round to the next, so a deadline
// miss in any round is final, while a bound under its deadline is
// final only at the fixed point. The package states both halves once.
// One stop rule: Options.Goal names a goal transaction and
// Options.StopAtDeadlineMiss makes every transaction a goal, and the
// iteration ends at the first round in which a goal misses
// (Result.StoppedAtGoal). A run that never stops is unchanged, bit for
// bit, and a stopped result's recorded rounds are a prefix of the
// stop-free run, so it seeds AnalyzeFrom under any stop rule. One
// verdict rule: Result.MeetsDeadline is true only when the bounds are
// the fixed point (or the one static pass), never after a stop, a
// MaxIterations cut or the exit on an unbounded response, and
// Result.Schedulable is every transaction meeting.
//
// One copy rule saves the work of unchanged tasks. A task's response in
// a round is a deterministic function of its parameters, its own
// offset, jitter and best case, and the offsets, jitters and parameters
// of its interference set, so a recorded TaskResult whose round read
// the same parameters is copied whenever every offset, jitter and best
// case the task reads equals, bit for bit, what that round recorded.
// Two recorded rounds serve: the previous round of the same analysis,
// and, for Engine.AnalyzeFrom, the same round of the seed Result's
// history, for the tasks whose parameters and interference set match
// their seed counterpart's. The copies are exact, so an incremental
// analysis is bit-identical to a cold one.
//
// One Engine serves one goroutine at a time; callers that are
// themselves parallel run one engine per worker with
// Options.Workers = 1.
//
// # Entry points
//
//   - Engine.AnalyzeStatic / AnalyzeStatic — the static-offset
//     analysis of Section 3.1: one pass with the offsets φ and
//     jitters J given in the system. Options.Exact selects the exact
//     analysis (all scenario vectors ν, Eq. 12-14); the default is
//     the approximate analysis of Section 3.1.2 (W* upper bound,
//     Eq. 15-16) whose scenario count is only Na+1.
//   - Engine.Analyze / Analyze — the dynamic-offset holistic
//     iteration of Section 3.2: offsets and jitters of every
//     non-initial task are derived from the predecessor's best/worst
//     response times (Eq. 18) and the static analysis is iterated to
//     a fixed point.
//   - BestBounds — the best-case bounds used by Eq. 18, including the
//     burstiness credit max(0, Cbest/α − β).
//   - CriticalScaling — the sensitivity metric: the largest uniform
//     execution-time scaling keeping the system schedulable.
//
// The package-level Analyze, AnalyzeStatic and their Context
// variants, and AnalyzeFromContext, run on engines drawn from one
// sync.Pool, so repeated calls reuse buffers as a held Engine does and
// are safe for concurrent use. A goroutine running a long loop of
// analyses may still hold its own Engine and skip the pool.
//
// All response times are measured from the activation of the
// transaction (not of the task), so the response time of the last task
// of a transaction is directly its end-to-end response time, to be
// compared against the transaction deadline.
package analysis
