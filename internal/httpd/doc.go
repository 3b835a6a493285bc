// Package httpd is the HTTP/JSON transport over the analysis service:
// it exposes the toolchain's three verbs — holistic analysis, priority
// assignment, bandwidth minimisation — plus per-client probe sessions
// and an observability endpoint, all routed through one shared
// service.Service so remote traffic enjoys the same verdict memo,
// in-flight deduplication and incremental re-analysis as in-process
// callers.
//
// Routes:
//
//	POST   /v1/analyze                   holistic (or static/exact) analysis of a spec document
//	POST   /v1/assign                    priority assignment (rm, dm, hopa, audsley) + analysis
//	POST   /v1/minimize                  minimal-bandwidth platform design search
//	POST   /v1/session                   bind a probe session; returns a token
//	POST   /v1/session/{token}/analyze   session-scoped probe: full spec or an edit
//	                                     against the session's last accepted system
//	GET    /v1/session/{token}/stats     the session's probe counters
//	DELETE /v1/session/{token}           drop the session (and its pinned seed)
//	GET    /v1/stats                     service counters + per-endpoint transport stats
//	GET    /v1/healthz                   liveness
//	GET    /debug/pprof/...              runtime profiles (only with Options.Pprof;
//	                                     CLI: `hsched serve -pprof`)
//
// Request bodies reuse the internal/spec JSON system format, wrapped
// with an options block mirroring the CLI flags (exact, workers,
// deadline_ms, …); a client's workers are clamped to the server's
// runtime.GOMAXPROCS(0), in either codec. The JSON bodies of the hot
// routes (both analyze forms and /v1/assign) are read in one pass by
// spec.Decoder, straight into a model.System and an OptionsSpec, with
// the acceptance rules of json.Unmarshal into AnalyzeRequest or
// AssignRequest; every string is copied out of the pooled read
// buffer. Their 200 bodies are appended into a pooled buffer and
// written in one Write, the bytes json.Encoder would write for
// AnalyzeResponse or AssignResponse (jsoncodec.go). The cold routes
// (minimize, session create, stats) and every error body use
// encoding/json. A 512-entry body-hash parse memo in front of
// /v1/analyze mirrors the service's verdict memo one layer up:
// admission-control traffic re-asks about a small population of
// systems, and for a memo-hit query decoding and validating the spec
// still costs several times the analysis, so a byte-identical repeated
// body skips both (ParseHits in /v1/stats). Both analyze
// routes run through one handler; a session probe differs only in
// where its system comes from and which handle analyses it. Analysis
// endpoints honour per-request deadlines — the options block's
// deadline_ms or the X-Deadline-Ms header — by
// wrapping the analysis in a context.WithTimeout: an expired deadline
// aborts the fixed-point iteration mid-flight and the client receives
// a 504 carrying the elapsed time and a service-stats snapshot. The
// service guarantees an aborted analysis leaves no trace in the
// verdict memo or a session's pinned seed.
//
// Verdicts are never read off lower bounds. The options block's
// stop_at_deadline_miss ends an analysis at its first deadline miss;
// such a response carries stopped: true (bit 2 of the binary response
// flags), and its responses are lower bounds of the fixed point. A
// per-transaction schedulable means "proven to meet": it is true only
// when the responses are the fixed point (or the one static pass) and
// the transaction's is within its deadline, so a stopped analysis, or
// one cut by max_iterations, reports every transaction false.
//
// /v1/analyze and the session analyze endpoint negotiate a second,
// binary content type: a request with Content-Type
// application/x-hsched-bin carries a fixed 48-byte options header
// followed by the system's canonical wire bytes
// (model.System.MarshalBinary). The SHA-256 of those bytes IS the
// system's fingerprint, so a repeated binary body is answered
// entirely from the service's intern pool — no JSON, no decode, one
// hash (BinaryHits in /v1/stats) — and a cold one decodes severalfold
// faster than JSON. Accept: application/x-hsched-bin selects the
// fixed-size binary response; errors are always JSON. The bench
// client (`hsched bench -remote -codec binary`) speaks this format.
//
// Sessions are the remote form of service.Session: each token pins the
// previous successful result as the seed of the next probe, so a
// client chaining one-edit-apart probes (an admission controller, a
// remote priority search) rides the incremental path
// (Engine.AnalyzeFrom) deterministically; a sessionless query runs
// cold on a memo miss and records no replay history, since only a
// session can reuse it. Session-scoped probes accept either a full spec or
// a model.Diff-shaped edit (platform parameter changes, transaction
// set/remove/add) applied against the session's last accepted system.
// The registry is bounded by the same segmented CLOCK cache
// (internal/cache) as the parse memo and the service's memo and intern
// pool; abandoned tokens eventually drop their pinned seeds. A token is
// kept until its first probe while the registry has room; once it is
// full, tokens created and never used leave through probation, so a
// flood of them evicts no session that has served a request.
//
// Error contract: malformed or inconsistent requests are 400s whose
// body names the offending field (spec.ErrInvalid wrapping), and so
// are bodies over 8 MiB and bodies still incomplete 10 s after their
// request began; unknown session tokens are 404s, missed deadlines
// are 504s, analysable-but-failed requests (scenario blow-up,
// infeasible designs) are 422s, and load shedding beyond the
// configured in-flight bound is a 429. All error bodies share the
// ErrorResponse shape: handlers return their errors and one place
// writes every error body, deriving the status from the error.
//
// Server.Serve drains gracefully on context cancellation (the CLI
// wires SIGTERM/SIGINT to it): the listener closes first, in-flight
// requests finish or hit their own deadlines within DrainTimeout, and
// a final stats line is flushed.
package httpd
