package httpd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
	"hsched/internal/spec"
)

// paperFile returns the spec document of the paper's example system
// (Table 1 / Figure 5), the fixture of every happy-path test.
func paperFile() *spec.File {
	return spec.FromSystem(experiments.PaperSystem())
}

// slowSystem generates a system whose analysis runs for hundreds of
// milliseconds — long enough that a tens-of-milliseconds request
// deadline expires mid-iteration (the 504 path), that a 150 ms one
// does too, and that a concurrent request reliably observes it in
// flight (the 429 path). About 0.6 s sequential and 0.3 s on two
// workers (the default server's, on two CPUs) on a 2-vCPU Xeon; size
// it up if the analysis gets faster.
func slowSystem(t *testing.T) *spec.File {
	t.Helper()
	sys, err := gen.System(gen.Config{
		Seed: 11, Platforms: 4, Transactions: 70, ChainLen: 10,
		PeriodMin: 50, PeriodMax: 1000, Utilization: 0.65,
		AlphaMin: 0.5, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec.FromSystem(sys)
}

// do runs one request against the server's handler and decodes the
// JSON response into out (skipped when out is nil).
func do(t *testing.T, s *Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

func TestAnalyzePaperExample(t *testing.T) {
	s := New(Options{})
	var resp AnalyzeResponse
	w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: paperFile()}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !resp.Schedulable || !resp.Converged {
		t.Fatalf("paper example: %+v, want schedulable and converged", resp)
	}
	if len(resp.Transactions) != 4 {
		t.Fatalf("%d transactions, want 4", len(resp.Transactions))
	}
	// Terse by default: no per-task bounds on the wire.
	if resp.Transactions[0].Tasks != nil {
		t.Error("per-task bounds present without options.bounds")
	}
	if r := resp.Transactions[0].Response; r == nil || *r != 31 {
		t.Errorf("Gamma1 response = %v, want 31 (the paper's tau1,4 bound)", r)
	}
}

func TestAnalyzeBareSpecBody(t *testing.T) {
	s := New(Options{})
	data, err := json.Marshal(paperFile())
	if err != nil {
		t.Fatal(err)
	}
	var resp AnalyzeResponse
	if w := do(t, s, "POST", "/v1/analyze", string(data), &resp); w.Code != http.StatusOK {
		t.Fatalf("bare spec body: status %d: %s", w.Code, w.Body.String())
	}
	if !resp.Schedulable {
		t.Error("bare spec body: not schedulable")
	}
}

func TestAnalyzeBounds(t *testing.T) {
	s := New(Options{})
	var resp AnalyzeResponse
	req := &AnalyzeRequest{System: paperFile(), Options: OptionsSpec{Bounds: true}}
	if w := do(t, s, "POST", "/v1/analyze", req, &resp); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	tasks := resp.Transactions[0].Tasks
	if len(tasks) != 4 {
		t.Fatalf("Gamma1 has %d task bounds, want 4", len(tasks))
	}
	last := tasks[len(tasks)-1]
	if last.Worst == nil || *last.Worst != 31 {
		t.Errorf("tau1,4 worst = %v, want 31", last.Worst)
	}
	if last.Platform != 3 {
		t.Errorf("tau1,4 platform = %d, want 3 (1-based, the integrator node)", last.Platform)
	}
}

// TestAnalyzeExactPruneCounters: an exact query's response reports
// the branch-and-bound work profile of its sweep — per-scenario skips
// and whole-subtree jumps — and /v1/stats accumulates the same
// counters service-side.
func TestAnalyzeExactPruneCounters(t *testing.T) {
	s := New(Options{})
	var resp AnalyzeResponse
	req := &AnalyzeRequest{System: paperFile(), Options: OptionsSpec{Exact: true}}
	if w := do(t, s, "POST", "/v1/analyze", req, &resp); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.ScenariosPruned <= 0 || resp.SubtreesPruned <= 0 {
		t.Fatalf("exact response reports scenarios=%d subtrees=%d pruned, want both > 0",
			resp.ScenariosPruned, resp.SubtreesPruned)
	}
	var st StatsResponse
	if w := do(t, s, "GET", "/v1/stats", nil, &st); w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	if st.Service.ScenariosPruned != resp.ScenariosPruned || st.Service.SubtreesPruned != resp.SubtreesPruned {
		t.Fatalf("stats report scenarios=%d subtrees=%d, response reported %d and %d",
			st.Service.ScenariosPruned, st.Service.SubtreesPruned, resp.ScenariosPruned, resp.SubtreesPruned)
	}
}

// One malformed body per endpoint: the 400 must name the offending
// field, not just fail (the spec error-context satellite, observed
// through the transport).
func TestMalformedBodies(t *testing.T) {
	s := New(Options{})
	bad := paperFile()
	bad.Transactions[1].Tasks[0].Platform = 99
	cases := []struct {
		name, method, path string
		body               any
		want               string
	}{
		{"analyze dangling platform", "POST", "/v1/analyze",
			&AnalyzeRequest{System: bad}, "transaction 2"},
		{"analyze undecodable", "POST", "/v1/analyze", `{"system": nope}`, "decoding request"},
		{"analyze empty", "POST", "/v1/analyze", nil, "no system"},
		{"assign unknown policy", "POST", "/v1/assign",
			&AssignRequest{System: paperFile(), Policy: "lottery"}, `policy "lottery"`},
		{"minimize bad family", "POST", "/v1/minimize",
			&MinimizeRequest{System: paperFile(), Families: []FamilySpec{{Kind: "psychic"}, {Kind: "psychic"}, {Kind: "psychic"}}}, `kind "psychic"`},
		{"session undecodable", "POST", "/v1/session", `]`, "decoding request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			w := do(t, s, tc.method, tc.path, tc.body, &er)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error %q does not name %q", er.Error, tc.want)
			}
		})
	}
	// Platform 99 exists only in Gamma2's first task: the message must
	// localise it.
	var er ErrorResponse
	do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: bad}, &er)
	if !strings.Contains(er.Error, "platform 99") {
		t.Errorf("error %q does not name the dangling platform", er.Error)
	}
}

func TestAssignPaperExample(t *testing.T) {
	s := New(Options{})
	var resp AssignResponse
	req := &AssignRequest{System: paperFile(), Policy: "hopa"}
	if w := do(t, s, "POST", "/v1/assign", req, &resp); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Policy != "hopa" {
		t.Errorf("policy %q", resp.Policy)
	}
	if !resp.Schedulable {
		t.Error("paper example not schedulable under hopa")
	}
	if len(resp.Priorities) != 4 || len(resp.Priorities[0]) != 4 {
		t.Fatalf("priorities shape %v", resp.Priorities)
	}
	// Default policy is audsley.
	var dresp AssignResponse
	if w := do(t, s, "POST", "/v1/assign", &AssignRequest{System: paperFile()}, &dresp); w.Code != http.StatusOK {
		t.Fatalf("default policy: status %d: %s", w.Code, w.Body.String())
	}
	if dresp.Policy != "audsley" {
		t.Errorf("default policy %q, want audsley", dresp.Policy)
	}
}

func TestMinimizePaperExample(t *testing.T) {
	s := New(Options{})
	var resp MinimizeResponse
	req := &MinimizeRequest{System: paperFile(), Tolerance: 0.01}
	if w := do(t, s, "POST", "/v1/minimize", req, &resp); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Alphas) != 3 || len(resp.Platforms) != 3 {
		t.Fatalf("result shape: %+v", resp)
	}
	if resp.TotalBandwidth <= 0 || resp.TotalBandwidth > 3 {
		t.Errorf("total bandwidth %v outside (0, 3]", resp.TotalBandwidth)
	}
}

func TestDeadline504(t *testing.T) {
	s := New(Options{})
	slow := slowSystem(t)

	// Deadline via the options block.
	var er ErrorResponse
	req := &AnalyzeRequest{System: slow, Options: OptionsSpec{DeadlineMS: 40}}
	if w := do(t, s, "POST", "/v1/analyze", req, &er); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if er.DeadlineMS != 40 || er.ElapsedMS < 40 {
		t.Errorf("504 profile: deadline %v, elapsed %v", er.DeadlineMS, er.ElapsedMS)
	}
	if er.Stats == nil || er.Stats.Queries != 1 || er.Stats.Misses != 1 {
		t.Errorf("504 stats snapshot: %+v", er.Stats)
	}

	// Deadline via the X-Deadline-Ms header.
	data, _ := json.Marshal(&AnalyzeRequest{System: slow})
	hreq := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(data))
	hreq.Header.Set("X-Deadline-Ms", "40")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, hreq)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("header deadline: status %d: %s", w.Code, w.Body.String())
	}

	// A malformed header is the client's fault, and so is a value no
	// deadline can carry: NaN, Inf, or one overflowing time.Duration.
	for _, h := range []string{"soon", "NaN", "Inf", "1e13"} {
		hreq = httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(data))
		hreq.Header.Set("X-Deadline-Ms", h)
		w = httptest.NewRecorder()
		s.Handler().ServeHTTP(w, hreq)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("header %q: status %d, want 400: %s", h, w.Code, w.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Status != http.StatusBadRequest {
			t.Fatalf("header %q: error body %q: %v", h, w.Body.String(), err)
		}
	}

	// The aborted analyses left no trace: the same system analysed
	// without a deadline recomputes and succeeds.
	var resp AnalyzeResponse
	if w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: slow}, &resp); w.Code != http.StatusOK {
		t.Fatalf("follow-up: status %d: %s", w.Code, w.Body.String())
	}
	if !resp.Converged {
		t.Error("follow-up analysis did not converge")
	}
}

func TestMaxInflightSheds(t *testing.T) {
	s := New(Options{MaxInflight: 1})
	slow := slowSystem(t)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: slow}, nil)
	}()
	// Wait until the slow analysis occupies the only slot.
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("slow request never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	var er ErrorResponse
	w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: paperFile()}, &er)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(er.Error, "limit 1") {
		t.Errorf("shed error %q does not state the limit", er.Error)
	}
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("slow request: status %d: %s", w.Code, w.Body.String())
	}

	// The shed is visible in the stats.
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.Endpoints["analyze"].Shed != 1 {
		t.Errorf("analyze endpoint stats: %+v, want 1 shed", st.Endpoints["analyze"])
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := New(Options{MaxInflight: 4})
	for i := 0; i < 3; i++ {
		if w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: paperFile()}, nil); w.Code != http.StatusOK {
			t.Fatalf("analyze %d: status %d", i, w.Code)
		}
	}
	var st StatsResponse
	if w := do(t, s, "GET", "/v1/stats", nil, &st); w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	if st.Service.Queries != 3 || st.Service.Hits != 2 {
		t.Errorf("service stats %+v, want 3 queries / 2 hits", st.Service)
	}
	if st.HitRate < 0.6 || st.HitRate > 0.7 {
		t.Errorf("hit rate %v, want 2/3", st.HitRate)
	}
	if st.MaxInflight != 4 {
		t.Errorf("max inflight %d", st.MaxInflight)
	}
	if st.ParseHits != 2 {
		t.Errorf("parse hits %d, want 2 (byte-identical repeats)", st.ParseHits)
	}
	ep, ok := st.Endpoints["analyze"]
	if !ok || ep.Requests != 3 || ep.Errors != 0 || ep.MeanUS <= 0 || ep.MaxUS < ep.MeanUS {
		t.Errorf("analyze endpoint stats: %+v (present %v)", ep, ok)
	}
	// The raw wire format uses the stable lowercase keys.
	w := do(t, s, "GET", "/v1/stats", nil, nil)
	for _, key := range []string{`"service"`, `"queries"`, `"hit_rate"`, `"uptime_ms"`, `"endpoints"`, `"parse_hits"`} {
		if !strings.Contains(w.Body.String(), key) {
			t.Errorf("stats body missing %s: %s", key, w.Body.String())
		}
	}
}

// TestParseMemo pins the body-hash decode cache's contract: distinct
// bodies (same system, different options) never share an entry, and a
// capacity-1 memo survives eviction churn.
func TestParseMemo(t *testing.T) {
	s := New(Options{})
	s.parse = newParseMemo(1)
	terse := &AnalyzeRequest{System: paperFile()}
	bounds := &AnalyzeRequest{System: paperFile(), Options: OptionsSpec{Bounds: true}}

	var r1, r2 AnalyzeResponse
	if w := do(t, s, "POST", "/v1/analyze", terse, &r1); w.Code != http.StatusOK {
		t.Fatalf("terse: %d", w.Code)
	}
	// Evicts the terse entry (capacity 1), and must not inherit its
	// options: the bounds request carries per-task results.
	if w := do(t, s, "POST", "/v1/analyze", bounds, &r2); w.Code != http.StatusOK {
		t.Fatalf("bounds: %d", w.Code)
	}
	if len(r1.Transactions[0].Tasks) != 0 || len(r2.Transactions[0].Tasks) == 0 {
		t.Errorf("options leaked through the parse memo: terse tasks %d, bounds tasks %d",
			len(r1.Transactions[0].Tasks), len(r2.Transactions[0].Tasks))
	}
	// Back to the evicted body: still correct, re-parsed.
	if w := do(t, s, "POST", "/v1/analyze", terse, &r1); w.Code != http.StatusOK || !r1.Schedulable {
		t.Fatalf("terse after eviction: %d schedulable=%v", w.Code, r1.Schedulable)
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.ParseHits != 0 {
		t.Errorf("parse hits %d, want 0 (every body evicted before its repeat)", st.ParseHits)
	}
}

// TestBodyCap: a body over the 8 MiB cap is a 400 whether its
// Content-Length declares it, it has none, or it runs past a smaller
// declared length (rawBody's spill branch), and the pooled read
// buffer still serves the next well-formed request.
func TestBodyCap(t *testing.T) {
	s := New(Options{})
	over := bytes.Repeat([]byte(" "), maxBody+1)
	for _, tc := range []struct {
		name     string
		declared int64
	}{
		{"declared over the cap", int64(len(over))},
		{"no content length", -1},
		{"longer than declared", 16},
	} {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(over))
		req.ContentLength = tc.declared
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: error body %q: %v", tc.name, w.Body.String(), err)
		}
		if w.Code != http.StatusBadRequest || !strings.Contains(er.Error, "too large") {
			t.Errorf("%s: status %d, error %q; want 400 naming the size", tc.name, w.Code, er.Error)
		}
	}
	var resp AnalyzeResponse
	if w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: paperFile()}, &resp); w.Code != http.StatusOK || !resp.Schedulable {
		t.Fatalf("well-formed request after the capped ones: status %d: %s", w.Code, w.Body.String())
	}

	// Through Serve: a body declared far over the cap gets the same 400
	// once the cap is read, and the connection closes, since the rest
	// of the body is too long to skip.
	nc, err := net.Dial("tcp", serveLoop(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	go fmt.Fprintf(nc, "POST /v1/analyze HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		2*maxBody, over)
	br := bufio.NewReader(nc)
	served, data := readResponse(t, br)
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || served.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "too large") {
		t.Errorf("served: status %d, body %q; want 400 naming the size", served.StatusCode, data)
	}
	if !served.Close {
		t.Error("served: response does not close the connection")
	}
	if n, err := br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Errorf("served: read %d bytes, %v after the 400; want EOF", n, err)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Options{})
	if w := do(t, s, "GET", "/v1/healthz", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
}

func TestEditSpecApply(t *testing.T) {
	base := experiments.PaperSystem()
	file := paperFile()

	// set + remove + add + platform edit in one pass.
	repl := file.Transactions[0]
	repl.Tasks[0].WCET = 1.5
	edit := &EditSpec{
		Platforms: []PlatformEdit{{Index: 1, Alpha: 0.9, Delta: 0.4, Beta: 0.3}},
		Set:       []TransactionSet{{Index: 1, Transaction: repl}},
		Remove:    []int{3},
		Add:       []spec.TransactionSpec{file.Transactions[2]},
	}
	sys, err := edit.apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Platforms[0].Alpha != 0.9 {
		t.Errorf("platform edit not applied: %+v", sys.Platforms[0])
	}
	if sys.Transactions[0].Tasks[0].WCET != 1.5 {
		t.Errorf("set not applied: %+v", sys.Transactions[0].Tasks[0])
	}
	if len(sys.Transactions) != 4 {
		t.Errorf("%d transactions after remove+add, want 4", len(sys.Transactions))
	}
	// The base must be untouched.
	if base.Platforms[0].Alpha == 0.9 || base.Transactions[0].Tasks[0].WCET == 1.5 {
		t.Error("apply mutated the base system")
	}

	for name, bad := range map[string]*EditSpec{
		"platform index": {Platforms: []PlatformEdit{{Index: 7, Alpha: 1}}},
		"set index":      {Set: []TransactionSet{{Index: 0}}},
		"remove index":   {Remove: []int{5}},
		"remove repeat":  {Remove: []int{2, 2}},
		"add dangling":   {Add: []spec.TransactionSpec{{Period: 10, Tasks: []spec.TaskSpec{{WCET: 1, Priority: 1, Platform: 9}}}}},
	} {
		if _, err := bad.apply(base); err == nil {
			t.Errorf("%s: apply accepted an invalid edit", name)
		}
	}
}

func TestFinHelper(t *testing.T) {
	for _, tc := range []struct {
		in  float64
		nil bool
	}{{31, false}, {0, false}, {math.Inf(1), true}} {
		got := fin(tc.in)
		if (got == nil) != tc.nil {
			t.Errorf("fin(%v) = %v", tc.in, got)
		}
		if got != nil && *got != tc.in {
			t.Errorf("fin(%v) = %v", tc.in, *got)
		}
	}
	// An unbounded response marshals as null, not as a marshal error.
	resp := TransactionVerdict{Deadline: 10, Response: fin(math.Inf(1))}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"response":null`) {
		t.Errorf("unbounded response marshalled as %s", data)
	}
}

// TestExactScenarioOverflow422: a client may send max_scenarios up to
// 2^63−1. A system whose exact scenario product exceeds every machine
// int — 33 transactions of 4 same-platform tasks give the lowest-
// priority task 4^33 scenarios — must still fail as a scenario blow-up
// (422), in JSON and in the binary u64, never come back as a 200 whose
// wrapped-around count swept nothing.
func TestExactScenarioOverflow422(t *testing.T) {
	sys := &model.System{Platforms: []platform.Params{platform.Dedicated()}}
	for i := 0; i < 33; i++ {
		tr := model.Transaction{Period: 1000, Deadline: 1000}
		for j := 0; j < 4; j++ {
			tr.Tasks = append(tr.Tasks, model.Task{WCET: 1, BCET: 1, Priority: 10})
		}
		sys.Transactions = append(sys.Transactions, tr)
	}
	sys.Transactions[32].Tasks[3].Priority = 1
	s := New(Options{})

	doc, err := json.Marshal(spec.FromSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"system": ` + string(doc) + `, "options": {"exact": true, "max_scenarios": 9223372036854775807}}`
	if w := do(t, s, "POST", "/v1/analyze", body, nil); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("JSON: status %d, want 422: %s", w.Code, w.Body.String())
	}

	bin, err := EncodeAnalyzeRequestBinary(sys, OptionsSpec{Exact: true, MaxScenarios: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(bin))
	req.Header.Set("Content-Type", ContentTypeBinary)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("binary: status %d, want 422: %s", w.Code, w.Body.String())
	}
}

func TestUnschedulable422NotReturned(t *testing.T) {
	// An unschedulable system is an analysis outcome, not an error:
	// still a 200 with schedulable=false.
	s := New(Options{})
	doc := `{"system": {"platforms":[{"alpha":0.3,"delta":1,"beta":0}],
		"transactions":[{"period":10,"tasks":[{"wcet":5,"priority":1,"platform":1}]}]}}`
	var resp AnalyzeResponse
	if w := do(t, s, "POST", "/v1/analyze", doc, &resp); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Schedulable {
		t.Error("overloaded system reported schedulable")
	}
	if resp.Transactions[0].Response != nil {
		t.Errorf("unbounded response = %v, want null", *resp.Transactions[0].Response)
	}
}

// TestOptionsWorkersClamped: a client's workers never exceed
// runtime.GOMAXPROCS(0), whichever codec carried them, while the
// server default and smaller values pass through. Only the mapping is
// exercised: no request runs with a huge value.
func TestOptionsWorkersClamped(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	def := analysis.Options{Workers: 1}
	for _, tc := range []struct{ workers, want int }{
		{0, def.Workers},
		{1, 1},
		{procs, procs},
		{procs + 1, procs},
		{math.MaxInt, procs},
	} {
		if got := (OptionsSpec{Workers: tc.workers}).analysis(def).Workers; got != tc.want {
			t.Errorf("JSON workers %d: mapped to %d, want %d", tc.workers, got, tc.want)
		}
		body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := decodeBinaryAnalyzeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.analysis(def).Workers; got != tc.want {
			t.Errorf("binary workers %d: mapped to %d, want %d", tc.workers, got, tc.want)
		}
	}
}
