package httpd

import (
	"math"
	"runtime"

	"hsched/internal/analysis"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// OptionsSpec is the JSON options block of every analysis-running
// request, mirroring the CLI flags of `hsched` / `hsched assign`.
// Absent fields fall back to the server's defaults (the `hsched serve`
// flags): booleans are taken from the request as-is, integer knobs
// fall back when zero.
type OptionsSpec struct {
	// Exact selects the exact scenario enumeration of Sec. 3.1.1.
	Exact bool `json:"exact,omitempty"`
	// Static runs the one-pass static-offset analysis instead of the
	// holistic iteration (analyze endpoints only).
	Static bool `json:"static,omitempty"`
	// TightBestCase enables the per-run burstiness refinement of the
	// best-case bounds.
	TightBestCase bool `json:"tight_best_case,omitempty"`
	// StopAtDeadlineMiss ends the iteration at the first provable
	// deadline miss (verdict-only traffic; a stopped response reports
	// stopped, and its responses are lower bounds).
	StopAtDeadlineMiss bool `json:"stop_at_deadline_miss,omitempty"`
	// Workers bounds the per-round response-time workers of this
	// query; 0 falls back to the server default (1 on a shared server,
	// so concurrent requests do not oversubscribe the host), and a
	// value above runtime.GOMAXPROCS(0) is clamped to it.
	Workers int `json:"workers,omitempty"`
	// MaxIterations bounds the outer holistic iteration; 0 keeps the
	// analysis default.
	MaxIterations int `json:"max_iterations,omitempty"`
	// MaxScenarios bounds the exact scenario count per task; 0 keeps
	// the analysis default.
	MaxScenarios int `json:"max_scenarios,omitempty"`
	// DeadlineMS is the per-request deadline in milliseconds, mapped
	// onto a context.WithTimeout around the analysis. The
	// X-Deadline-Ms header is the transport-level equivalent; the
	// options field wins when both are given. An expired deadline
	// aborts the analysis mid-fixed-point and the response is a 504.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// Bounds includes the per-task response-time bounds in the
	// response. Off by default: admission-control traffic wants the
	// verdict, and the terse response is what keeps a memo hit cheap
	// on the wire.
	Bounds bool `json:"bounds,omitempty"`
}

// analysis maps the options block onto analysis.Options, falling back
// to the server defaults for the integer knobs. A client's workers are
// clamped to runtime.GOMAXPROCS(0): no request fans one round out over
// more goroutines than the host runs at once.
func (o OptionsSpec) analysis(def analysis.Options) analysis.Options {
	opt := analysis.Options{
		Exact:              o.Exact,
		TightBestCase:      o.TightBestCase,
		StopAtDeadlineMiss: o.StopAtDeadlineMiss,
		Workers:            def.Workers,
		MaxIterations:      def.MaxIterations,
		MaxScenarios:       def.MaxScenarios,
		Epsilon:            def.Epsilon,
	}
	if o.Workers > 0 {
		opt.Workers = min(o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.MaxIterations > 0 {
		opt.MaxIterations = o.MaxIterations
	}
	if o.MaxScenarios > 0 {
		opt.MaxScenarios = o.MaxScenarios
	}
	return opt
}

// AnalyzeRequest is the body of POST /v1/analyze and of the
// session-scoped POST /v1/session/{token}/analyze. Exactly one of
// System and Edit must be set (Edit only on the session-scoped form,
// where it applies against the session's last accepted system). For
// curl friendliness a bare spec document — a body whose top level is
// the system itself — is also accepted by /v1/analyze.
type AnalyzeRequest struct {
	System  *spec.File  `json:"system,omitempty"`
	Edit    *EditSpec   `json:"edit,omitempty"`
	Options OptionsSpec `json:"options"`
}

// AssignRequest is the body of POST /v1/assign.
type AssignRequest struct {
	System *spec.File `json:"system"`
	// Policy is rm, dm, hopa or audsley; empty selects audsley.
	Policy string `json:"policy,omitempty"`
	// Iterations bounds HOPA's deadline-redistribution rounds.
	Iterations int         `json:"iterations,omitempty"`
	Options    OptionsSpec `json:"options"`
}

// MinimizeRequest is the body of POST /v1/minimize.
type MinimizeRequest struct {
	System *spec.File `json:"system"`
	// Families selects one server family per platform; empty defaults
	// every platform to a polling family whose period is a quarter of
	// the shortest transaction period (the generator's convention).
	Families []FamilySpec `json:"families,omitempty"`
	// Tolerance is the bandwidth resolution; 0 selects the design
	// default (1e-3).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Passes bounds the coordinate-descent sweeps; 0 selects the
	// design default.
	Passes  int         `json:"passes,omitempty"`
	Options OptionsSpec `json:"options"`
}

// FamilySpec names one platform's server family for /v1/minimize.
type FamilySpec struct {
	// Kind is polling, tdma or pfair.
	Kind string `json:"kind"`
	// Period is the polling-server period (kind polling).
	Period float64 `json:"period,omitempty"`
	// Frame is the TDMA frame (kind tdma).
	Frame float64 `json:"frame,omitempty"`
	// Quantum is the proportional-share quantum (kind pfair).
	Quantum float64 `json:"quantum,omitempty"`
}

// SessionRequest is the body of POST /v1/session. The options block
// becomes the session's default for probes that omit their own.
type SessionRequest struct {
	Options OptionsSpec `json:"options"`
}

// SessionResponse returns the token of a freshly bound session.
type SessionResponse struct {
	Token string `json:"token"`
}

// EditSpec is a model.Diff-shaped edit applied to the session's last
// accepted system: platform parameter changes, in-place transaction
// replacements, removals and additions. All indices are 1-based,
// matching the spec file format. Application order: platforms, set,
// remove (indices refer to the pre-edit transaction list), then add.
type EditSpec struct {
	Platforms []PlatformEdit         `json:"platforms,omitempty"`
	Set       []TransactionSet       `json:"set,omitempty"`
	Remove    []int                  `json:"remove,omitempty"`
	Add       []spec.TransactionSpec `json:"add,omitempty"`
}

// PlatformEdit replaces one platform's (α, Δ, β) parameters.
type PlatformEdit struct {
	Index int     `json:"index"`
	Alpha float64 `json:"alpha"`
	Delta float64 `json:"delta"`
	Beta  float64 `json:"beta"`
}

// TransactionSet replaces one transaction in place.
type TransactionSet struct {
	Index       int                  `json:"index"`
	Transaction spec.TransactionSpec `json:"transaction"`
}

// AnalyzeResponse is the 200 body of the analyze endpoints — the
// machine-readable verdict shape of `hsched bench -json`.
type AnalyzeResponse struct {
	Schedulable bool `json:"schedulable"`
	Converged   bool `json:"converged"`
	// Stopped marks an analysis that stopped at a deadline miss
	// (options.stop_at_deadline_miss) before the fixed point: its
	// responses are lower bounds.
	Stopped    bool `json:"stopped,omitempty"`
	Iterations int  `json:"iterations"`
	// ScenariosPruned is the exact sweep's branch-and-bound savings
	// for this analysis (0 for approximate or memo-answered traffic).
	ScenariosPruned int64 `json:"scenarios_pruned,omitempty"`
	// SubtreesPruned counts the whole cursor subtrees those skips were
	// taken in — the branch-and-bound jump count behind ScenariosPruned.
	SubtreesPruned int64 `json:"subtrees_pruned,omitempty"`
	// Delta is non-nil when the answering analysis ran incrementally.
	Delta     *DeltaStats `json:"delta,omitempty"`
	ElapsedMS float64     `json:"elapsed_ms"`
	// Transactions carries per-transaction (and, with options.bounds,
	// per-task) results.
	Transactions []TransactionVerdict `json:"transactions,omitempty"`
	// SessionStats snapshots the probe session's counters after this
	// probe (session-scoped analyzes only).
	SessionStats *service.SessionStats `json:"session_stats,omitempty"`
}

// DeltaStats is the JSON form of analysis.DeltaInfo.
type DeltaStats struct {
	CleanTasks      int `json:"clean_tasks"`
	DirtyTasks      int `json:"dirty_tasks"`
	ReplayedRounds  int `json:"replayed_rounds"`
	TaskRoundsSaved int `json:"task_rounds_saved"`
}

// TransactionVerdict is one transaction's outcome. Response is the
// end-to-end worst-case response time; null when unbounded (JSON has
// no +Inf), in which case Schedulable is false.
type TransactionVerdict struct {
	Name        string       `json:"name,omitempty"`
	Deadline    float64      `json:"deadline"`
	Response    *float64     `json:"response"`
	Schedulable bool         `json:"schedulable"`
	Tasks       []TaskBounds `json:"tasks,omitempty"`
}

// TaskBounds are one task's analysed bounds; unbounded values are
// null.
type TaskBounds struct {
	Name     string   `json:"name,omitempty"`
	Platform int      `json:"platform"`
	Offset   *float64 `json:"offset"`
	Jitter   *float64 `json:"jitter"`
	Best     *float64 `json:"best"`
	Worst    *float64 `json:"worst"`
}

// AssignResponse is the 200 body of /v1/assign: the analysis of the
// installed assignment plus the per-transaction priority vectors.
type AssignResponse struct {
	AnalyzeResponse
	Policy string `json:"policy"`
	// Priorities[i][j] is the installed priority of task j of
	// transaction i.
	Priorities [][]int `json:"priorities"`
}

// MinimizeResponse is the 200 body of /v1/minimize.
type MinimizeResponse struct {
	Alphas         []float64           `json:"alphas"`
	Platforms      []spec.PlatformSpec `json:"platforms"`
	TotalBandwidth float64             `json:"total_bandwidth"`
	ElapsedMS      float64             `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-200. A 504 (deadline hit
// mid-analysis) carries the partial work profile: the elapsed wall
// time and a snapshot of the service counters at abort.
type ErrorResponse struct {
	Error      string         `json:"error"`
	Status     int            `json:"status"`
	ElapsedMS  float64        `json:"elapsed_ms,omitempty"`
	DeadlineMS float64        `json:"deadline_ms,omitempty"`
	Stats      *service.Stats `json:"stats,omitempty"`
}

// StatsResponse is the body of GET /v1/stats: the full service
// counters plus the transport layer's own.
type StatsResponse struct {
	Service  service.Stats   `json:"service"`
	HitRate  float64         `json:"hit_rate"`
	Sessions SessionCounters `json:"sessions"`
	// Inflight is the number of analysis-running requests currently
	// executing; MaxInflight the 429-shedding bound (0 = unbounded).
	Inflight    int64 `json:"inflight"`
	MaxInflight int   `json:"max_inflight,omitempty"`
	// ParseHits counts /v1/analyze bodies served from the body-hash
	// decode cache (byte-identical repeats skip JSON decoding and
	// spec conversion).
	ParseHits int64 `json:"parse_hits"`
	// BinaryHits counts binary analyze bodies whose system was
	// recognised in the intern pool by the hash of its wire bytes —
	// requests served with zero decoding (the binary counterpart of
	// ParseHits).
	BinaryHits int64                    `json:"binary_hits"`
	UptimeMS   float64                  `json:"uptime_ms"`
	Endpoints  map[string]EndpointStats `json:"endpoints"`
}

// SessionCounters describes the session registry.
type SessionCounters struct {
	Open    int   `json:"open"`
	Created int64 `json:"created"`
	// Evicted counts sessions displaced by the registry's CLOCK cap
	// (explicitly deleted sessions are not evictions).
	Evicted int64 `json:"evicted"`
}

// EndpointStats are one route's request/latency counters.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	// Errors counts non-2xx responses, including shed requests.
	Errors int64 `json:"errors"`
	// Shed counts 429s from the max-inflight bound.
	Shed   int64   `json:"shed,omitempty"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  float64 `json:"max_us"`
}

// fin maps a float to its JSON form: nil for non-finite values (JSON
// has no Inf/NaN; a null bound means "unbounded").
func fin(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}
