// Package hsched is a hierarchical scheduling framework for
// component-based real-time systems: a from-scratch reproduction of
// Lorente, Lipari & Bini, "A Hierarchical Scheduling Model for
// Component-Based Real-Time Systems" (IPDPS 2006).
//
// The package is a façade over the implementation packages:
//
//   - Components (Class, Instance, Assembly) describe systems the way
//     the paper's Section 2 does — provided/required interfaces,
//     periodic and handler threads, synchronous RPC — and transform
//     into transaction sets (Assembly.Transactions).
//   - Systems (System, Transaction, Task) are the transaction model of
//     Section 2.4: task chains over abstract computing platforms.
//   - Platforms (Platform, PeriodicServer, TDMA, Pfair) carry the
//     supply model of Section 2.3: the (α, Δ, β) linearisation of the
//     minimum/maximum supply functions.
//   - Analyze / AnalyzeStatic run the schedulability analysis of
//     Section 3 (holistic dynamic-offset, approximate or exact). They
//     are thin wrappers over a package-default Service (see below), so
//     repeated identical queries are memoised.
//   - Simulate executes the system on concrete budget servers and
//     reports observed response times, for validation and exploration.
//   - Assign / HOPA / Audsley choose the local fixed priorities the
//     paper leaves to the component designer: closed-form monotonic
//     rankings plus two oracle-driven searches whose probes ride a
//     probe session (below).
//   - MinimizeBandwidth searches minimal platform parameters keeping
//     the system schedulable (the paper's Section 5 future work); its
//     feasibility oracle runs through an analysis service, so the
//     search's revisited parameter points are answered from the memo.
//
// # Architecture
//
// The analysis stack is layered; each layer is usable on its own:
//
//	façade (Analyze, AnalyzeContext, Assign, MinimizeBandwidth, …)
//	  └─ search layer (Assign/HOPA/Audsley, MinimizeBandwidth) —
//	     oracle-driven loops probing chains of one-edit-apart systems
//	       └─ ProbeSession (Service.NewSession) — pins the previous
//	          probe's result as the next probe's incremental seed;
//	          per-session SessionStats roll up into ServiceStats
//	          └─ Service — concurrency-safe front-end: stripes
//	             routed by System.Fingerprint, each holding a CLOCK
//	             verdict memo keyed by (fingerprint, normalised
//	             options) and an intern pool, and running one analysis
//	             at a time; singleflight dedup of concurrent identical
//	             queries, a session's misses re-analysed incrementally
//	             off its pinned seed (other misses run cold and record
//	             no replay history), context-aware cancellation
//	              └─ Analyzer (analysis.Engine) — one goroutine's
//	                 reusable engine (the service draws pooled ones
//	                 per analysis): transaction-keyed state slabs,
//	                 per-round parallel response computation, one
//	                 streamed, pruned exact sweep per task,
//	                 incremental AnalyzeFrom replay
//	                   └─ batch — deterministic parallel map
//
// Which entry point do I use?
//
//	one-shot query, don't care        Analyze / AnalyzeStatic
//	cancellable one-shot query        AnalyzeContext / AnalyzeStaticContext
//	serving many queries (traffic)    NewService + Service.Analyze
//	private mutable results, or       NewAnalyzer + Analyzer.Analyze
//	  AnalyzeFrom chains of your own
//	sweeping huge populations         one NewAnalyzer per goroutine,
//	                                  AnalysisOptions.Workers = 1
//	choosing task priorities          Assign (policy rm/dm/hopa/audsley)
//	search loop of one-edit probes    Service.NewSession + ProbeSession
//	other processes or hosts          `hsched serve` (internal/httpd):
//	                                  the same service over HTTP/JSON,
//	                                  with ProbeSessions as per-client
//	                                  session tokens (remote probe
//	                                  chains send diff-shaped edits and
//	                                  ride the incremental path)
//
// Results returned by the service-backed entry points (Analyze,
// AnalyzeContext, Service.Analyze) may be shared with other callers —
// treat them as read-only. NewAnalyzer returns results that are
// exclusively the caller's.
//
// The quickstart example in examples/quickstart builds the paper's
// running sensor-fusion example end to end.
package hsched

import (
	"context"
	"sync"

	"hsched/internal/analysis"
	"hsched/internal/component"
	"hsched/internal/design"
	"hsched/internal/edf"
	"hsched/internal/model"
	"hsched/internal/network"
	"hsched/internal/platform"
	"hsched/internal/sched"
	"hsched/internal/server"
	"hsched/internal/service"
	"hsched/internal/sim"
	"hsched/internal/spec"
)

// Transaction-model types (Section 2.4).
type (
	// System is a set of transactions over abstract platforms.
	System = model.System
	// Transaction is a precedence chain of tasks released periodically.
	Transaction = model.Transaction
	// Task is one step of a transaction, mapped onto one platform.
	Task = model.Task
)

// Platform types (Section 2.3).
type (
	// Platform is the linear platform model (α, Δ, β).
	Platform = platform.Params
	// Supplier bounds the cycles a mechanism provides in any window.
	Supplier = platform.Supplier
	// PeriodicServer is the Q-every-P budget server of Figure 3.
	PeriodicServer = platform.PeriodicServer
	// TDMA is a static time partition.
	TDMA = platform.TDMA
	// Pfair is a quantum-based proportional-share server.
	Pfair = platform.Pfair
	// SupplyCurve is an arbitrary piecewise-linear supply specification.
	SupplyCurve = platform.Curve
)

// Component-model types (Sections 2.1-2.2).
type (
	// Class is a component class: interfaces plus threaded
	// implementation.
	Class = component.Class
	// Method is an interface method with its minimum inter-arrival
	// time.
	Method = component.Method
	// Thread is a periodic or handler thread of a component.
	Thread = component.Thread
	// Step is a task or synchronous call in a thread body.
	Step = component.Step
	// Instance is a class placed on a platform.
	Instance = component.Instance
	// Binding wires a required method to a provided one.
	Binding = component.Binding
	// Assembly is an integrated component system.
	Assembly = component.Assembly
	// MessageModel configures RPC messages over a network platform.
	MessageModel = component.MessageModel
)

// Analysis types (Section 3).
type (
	// AnalysisOptions tunes the schedulability analysis.
	AnalysisOptions = analysis.Options
	// AnalysisResult is the outcome: per-task bounds plus verdict.
	AnalysisResult = analysis.Result
	// TaskBounds are the per-task analysis outcome.
	TaskBounds = analysis.TaskResult
	// Analyzer is the reusable analysis engine: it owns all
	// per-analysis scratch state (transaction-keyed slabs of
	// interference rows, scenario and result buffers) and amortises it
	// across calls, running each fixed-point round as a staged
	// pipeline (interference construction → scenario enumeration →
	// parallel per-task responses → jitter propagation). Exact
	// scenario sweeps stream from a mixed-radix cursor and run true
	// branch-and-bound: one table of admissible per-initiator bounds
	// jumps whole refuted subtrees (AnalysisResult.ScenariosPruned /
	// SubtreesPruned count the savings), with results bit-identical to
	// evaluating every scenario. One Analyzer serves one goroutine;
	// results are identical for every worker count.
	// Analyzer.AnalyzeFrom re-analyses an edited system incrementally,
	// replaying the previous result's per-round history for the tasks
	// the edit cannot reach — bit-identical to a cold Analyze, a
	// fraction of the work. An Analyzer carries buffers from one
	// analysis to the next, never values: each analysis reports the
	// same bounds and work counts as on a fresh Analyzer.
	Analyzer = analysis.Engine
	// AnalysisDelta describes how much work an incremental re-analysis
	// skipped (AnalysisResult.Delta, non-nil on the delta path).
	AnalysisDelta = analysis.DeltaInfo
)

// Service types: the long-running, concurrency-safe analysis
// front-end (verdict memo + in-flight dedup + a bound on the analyses
// running at once).
type (
	// Service is a sharded, memoising, concurrency-safe analysis
	// service; construct with NewService. Callers that decode
	// systems from bytes can collapse duplicate-heavy traffic to one
	// resident copy per distinct system via Service.Intern (the
	// fingerprint-keyed intern pool). See package internal/service
	// for the full semantics.
	Service = service.Service
	// ServiceOptions configures NewService: shard count, the capacity
	// of the verdict memo and of the intern pool, default analysis
	// options. The memo, the intern pool and the session delta path
	// have no off-switch.
	ServiceOptions = service.Options
	// ServiceStats is a snapshot of a service's counters (queries,
	// hits, misses, evictions, in-flight dedups, delta hits, the
	// task-rounds the incremental path saved, the exact scenarios
	// the sweep prune skipped, and the intern pool's hits, misses
	// and resident count).
	ServiceStats = service.Stats
	// SystemFingerprint is the canonical content hash of a System —
	// the service's cache and shard key, stable across JSON round
	// trips. It is the SHA-256 of the system's canonical wire bytes
	// (System.MarshalBinary), so a holder of the encoded form can
	// compute it without decoding.
	SystemFingerprint = model.Fingerprint
	// SystemDiff is the transaction-granular structural difference
	// between two systems (DiffSystems): unchanged / modified / added /
	// removed transactions plus platform-parameter changes. It is what
	// the incremental re-analysis path plans its replay from.
	SystemDiff = model.SystemDiff
	// ProbeSession is a pinned-seed probe handle on a Service
	// (Service.NewSession): it holds the caller's previous result as
	// the explicit seed of the next query, so search loops analysing
	// chains of one-edit-apart systems ride the incremental path
	// deterministically. The priority-assignment searches and the
	// bandwidth minimisation probe through one.
	ProbeSession = service.Session
	// SessionStats is a snapshot of one probe session's counters
	// (probes, memo hits, executed analyses, delta hits, rounds
	// saved).
	SessionStats = service.SessionStats
)

// DiffSystems structurally diffs two systems at transaction
// granularity, matching transactions by their analysis fingerprint
// (names and holistic-derived offsets ignored). Reorderings diff as
// unchanged; SystemDiff.InOrder reports whether the matching preserved
// relative order (the precondition for incremental replay).
func DiffSystems(old, new *System) *SystemDiff {
	return model.Diff(old, new)
}

// Simulation types.
type (
	// SimConfig tunes a simulation run.
	SimConfig = sim.Config
	// SimResult is the observed outcome of a simulation.
	SimResult = sim.Result
	// Server is a runtime platform realisation consumed by Simulate.
	Server = server.Server
	// LocalPolicy selects a platform's local scheduler in simulations.
	LocalPolicy = sim.Policy
)

// Local scheduling policies for SimConfig.Policies.
const (
	// FixedPriorityPolicy is the paper's baseline local scheduler.
	FixedPriorityPolicy = sim.FixedPriority
	// EDFPolicy schedules by earliest absolute deadline.
	EDFPolicy = sim.EDF
)

// Local-EDF admission (the extension sketched in Section 2.1).
type (
	// EDFTask is one sporadic task of an EDF-scheduled component.
	EDFTask = edf.Task
	// EDFResult is the outcome of the demand/supply admission test.
	EDFResult = edf.Result
)

// EDFSchedulable tests a set of independent sporadic tasks under local
// EDF on a platform: schedulable iff the demand bound function never
// exceeds the platform's minimum supply.
func EDFSchedulable(tasks []EDFTask, p Supplier) (*EDFResult, error) {
	return edf.Schedulable(tasks, p)
}

// EDFMinimalRate searches the minimal platform bandwidth keeping a
// task set EDF-schedulable within a one-parameter platform family.
func EDFMinimalRate(tasks []EDFTask, family func(alpha float64) Supplier, tol float64) (float64, error) {
	return edf.MinimalRate(tasks, family, tol)
}

// Re-exported constructors and helpers.
var (
	// DedicatedPlatform returns (α, Δ, β) = (1, 0, 0).
	DedicatedPlatform = platform.Dedicated
	// Linearize numerically extracts (α, Δ, β) from any Supplier.
	Linearize = platform.Linearize
	// ComposePlatforms stacks a reservation on a reservation (nested
	// hierarchies): rates multiply, the inner delay dilates by the
	// outer rate.
	ComposePlatforms = platform.Compose
	// TaskStep builds a task step of a thread body.
	TaskStep = component.Task
	// TaskStepPrio builds a task step with a priority override.
	TaskStepPrio = component.TaskPrio
	// CallStep builds a synchronous call step of a thread body.
	CallStep = component.Call
	// LoadSystem reads a JSON system specification.
	LoadSystem = spec.Load
	// SaveSystem writes a JSON system specification.
	SaveSystem = spec.Save
)

// Thread and step kinds.
const (
	// PeriodicThread marks a time-triggered thread.
	PeriodicThread = component.Periodic
	// HandlerThread marks an event-triggered thread realising a
	// provided method.
	HandlerThread = component.Handler
)

// Priority-assignment types (package sched): the paper leaves local
// fixed priorities to the component designer; these close the gap.
type (
	// AssignPolicy names a priority-assignment policy for Assign:
	// AssignRM, AssignDM, AssignHOPA or AssignAudsley.
	AssignPolicy = sched.Policy
	// AssignOptions tunes Assign (oracle options, HOPA iterations,
	// shared analysis service).
	AssignOptions = sched.AssignOptions
	// HOPAOptions tunes HOPA / HOPAContext.
	HOPAOptions = sched.HOPAOptions
	// AudsleyOptions tunes AudsleyContext.
	AudsleyOptions = sched.AudsleyOptions
)

// The priority-assignment policies.
const (
	// AssignRM ranks tasks by transaction period (rate monotonic).
	AssignRM = sched.PolicyRM
	// AssignDM ranks tasks by end-to-end deadline (deadline
	// monotonic).
	AssignDM = sched.PolicyDM
	// AssignHOPA searches by iterative deadline distribution (HOPA).
	AssignHOPA = sched.PolicyHOPA
	// AssignAudsley searches bottom-up per platform (Audsley-style
	// optimal priority assignment).
	AssignAudsley = sched.PolicyAudsley
)

// Assign applies one priority-assignment policy to sys, overwriting
// its task priorities, and returns the holistic analysis of the
// installed assignment plus whether it is schedulable. The search
// policies (AssignHOPA, AssignAudsley) probe the analysis through a
// ProbeSession on AssignOptions.Service — each probe is one priority
// move from the previous one, so it re-analyses incrementally and
// revisited assignments come from the verdict memo. Treat the result
// as read-only.
func Assign(ctx context.Context, sys *System, policy AssignPolicy, opt AssignOptions) (*AnalysisResult, bool, error) {
	return sched.Assign(ctx, sys, policy, opt)
}

// AssignPolicies lists the selectable priority-assignment policies.
func AssignPolicies() []AssignPolicy { return sched.Policies() }

// RateMonotonic and DeadlineMonotonic install the closed-form
// monotonic rankings in place (no analysis is run; use Assign for an
// analysed verdict).
var (
	// RateMonotonic ranks every task by its transaction's period.
	RateMonotonic = sched.RateMonotonic
	// DeadlineMonotonic ranks every task by its transaction's
	// end-to-end deadline.
	DeadlineMonotonic = sched.DeadlineMonotonic
)

// HOPA searches a priority assignment by iterative deadline
// distribution against the holistic analysis and installs the best
// assignment found; see package sched for the search's shape.
func HOPA(sys *System, opt HOPAOptions) (*AnalysisResult, error) {
	return sched.HOPA(sys, opt)
}

// HOPAContext is HOPA with cancellation, polled between oracle probes
// and inside the analyses.
func HOPAContext(ctx context.Context, sys *System, opt HOPAOptions) (*AnalysisResult, error) {
	return sched.HOPAContext(ctx, sys, opt)
}

// Audsley performs Audsley-style optimal priority assignment per
// platform with the holistic analysis as its oracle, installs the
// found assignment, and reports whether it is schedulable.
func Audsley(sys *System, opt AnalysisOptions) (*AnalysisResult, bool, error) {
	return sched.Audsley(sys, opt)
}

// AudsleyContext is Audsley with cancellation and an explicit oracle
// service (AudsleyOptions.Service).
func AudsleyContext(ctx context.Context, sys *System, opt AudsleyOptions) (*AnalysisResult, bool, error) {
	return sched.AudsleyContext(ctx, sys, opt)
}

// Network and design-search types.
type (
	// Bus is a shared communication link modelled as a platform.
	Bus = network.Bus
	// ServerFamily maps a bandwidth α to full platform parameters,
	// used by MinimizeBandwidth.
	ServerFamily = design.Family
	// DesignOptions tunes MinimizeBandwidth.
	DesignOptions = design.Options
	// DesignResult reports the minimised bandwidths.
	DesignResult = design.Result
)

// Design-search families and network helpers.
var (
	// PollingFamily is the periodic-server family of a fixed period.
	PollingFamily = design.PollingFamily
	// TDMAFamily is the static-partition family of a fixed frame.
	TDMAFamily = design.TDMAFamily
	// PfairFamily is the proportional-share family of a fixed quantum.
	PfairFamily = design.PfairFamily
	// ApplyBusBlocking adds a bus's non-preemptive blocking to every
	// message task on the network platform.
	ApplyBusBlocking = network.ApplyBlocking
)

// NewAnalyzer returns a reusable analysis engine with the given
// options. Construct one per goroutine and call its Analyze /
// AnalyzeStatic methods across many systems: consecutive analyses of
// same-sized systems reuse every buffer, which is what the batch
// sweeps rely on for throughput; no value crosses from one analysis
// to the next. Unlike the service-backed
// entry points, every result is a private copy the caller may mutate.
func NewAnalyzer(opt AnalysisOptions) *Analyzer {
	return analysis.NewEngine(opt)
}

// NewService returns a concurrency-safe analysis service: stripes
// routed by system fingerprint, each running at most one analysis at a
// time, a CLOCK memo of verdicts keyed by (fingerprint, normalised
// options) and an intern pool, both always on (a Capacity of 0 or less
// selects the default size), and singleflight deduplication of
// concurrent identical queries. The service keeps no engines: every analysis draws a pooled
// one from the analysis package. Hold one Service for the lifetime of
// a serving process and query it from any number of goroutines.
func NewService(opt ServiceOptions) *Service {
	return service.New(opt)
}

// defaultService backs the package-level Analyze / AnalyzeStatic free
// functions: a lazily-constructed process-wide service with default
// options, so existing one-shot callers transparently gain verdict
// memoisation.
var (
	defaultServiceOnce sync.Once
	defaultService     *Service
)

// DefaultService returns the process-wide analysis service the
// package-level Analyze and AnalyzeStatic use. Use it to read cache
// statistics for the free-function traffic, to share the same memo
// with explicit Service-style calls, or to release the memory its
// memo and intern pool pin (Service.Reset) in long-lived
// processes that analyse large disjoint system populations.
func DefaultService() *Service {
	defaultServiceOnce.Do(func() { defaultService = service.New(service.Options{}) })
	return defaultService
}

// Analyze runs the holistic dynamic-offset schedulability analysis of
// Section 3.2: offsets and jitters of non-initial tasks are derived
// from predecessor response times and iterated to a fixed point. It is
// a thin wrapper over DefaultService, so repeated identical queries
// are answered from the verdict memo; treat the returned result as
// read-only (it may be shared), and use NewAnalyzer for a private
// mutable copy.
func Analyze(sys *System, opt AnalysisOptions) (*AnalysisResult, error) {
	return DefaultService().AnalyzeOptions(context.Background(), sys, opt)
}

// AnalyzeContext is Analyze with cancellation: the analysis polls ctx
// between holistic rounds, between per-task response computations and
// inside large exact scenario sweeps, and returns an error wrapping
// ctx.Err() on abort.
func AnalyzeContext(ctx context.Context, sys *System, opt AnalysisOptions) (*AnalysisResult, error) {
	return DefaultService().AnalyzeOptions(ctx, sys, opt)
}

// AnalyzeStatic runs one pass of the static-offset analysis of
// Section 3.1 with the offsets and jitters stored in the system. Like
// Analyze it is served by DefaultService; treat the result as
// read-only.
func AnalyzeStatic(sys *System, opt AnalysisOptions) (*AnalysisResult, error) {
	return DefaultService().AnalyzeStaticOptions(context.Background(), sys, opt)
}

// AnalyzeStaticContext is AnalyzeStatic with cancellation.
func AnalyzeStaticContext(ctx context.Context, sys *System, opt AnalysisOptions) (*AnalysisResult, error) {
	return DefaultService().AnalyzeStaticOptions(ctx, sys, opt)
}

// Simulate executes the system on one concrete server per platform.
func Simulate(sys *System, servers []Server, cfg SimConfig) (*SimResult, error) {
	return sim.Run(sys, servers, cfg)
}

// ServerFor builds a runtime server realising the given platform
// parameters (a polling server with the tightest compatible period, a
// proportional-share server for Δ = 0, or a dedicated processor).
func ServerFor(p Platform, phase float64) (Server, error) {
	return server.ForPlatform(p, phase)
}

// MinimizeBandwidth searches per-platform bandwidths minimising total
// bandwidth subject to schedulability, within one server family per
// platform (the paper's Section 5 future work). See package design for
// the families. The feasibility oracle runs through an analysis
// service (DesignOptions.Service, or a private one), whose verdict
// memo answers the search's revisited parameter points.
func MinimizeBandwidth(sys *System, families []ServerFamily, opt DesignOptions) (*DesignResult, error) {
	return design.Minimize(sys, families, opt)
}

// MinimizeBandwidthContext is MinimizeBandwidth with cancellation.
func MinimizeBandwidthContext(ctx context.Context, sys *System, families []ServerFamily, opt DesignOptions) (*DesignResult, error) {
	return design.MinimizeContext(ctx, sys, families, opt)
}
