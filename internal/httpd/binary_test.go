package httpd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hsched/internal/experiments"
	"hsched/internal/model"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// doBinary posts a binary analyze body (with binary Accept when
// acceptBinary) and returns the recorder.
func doBinary(t *testing.T, s *Server, path string, body []byte, acceptBinary bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentTypeBinary)
	if acceptBinary {
		req.Header.Set("Accept", ContentTypeBinary)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestAnalyzeBinaryRoundTrip asserts a binary request with a binary
// Accept returns the same verdict as the JSON codec, through the full
// encode → handler → decode loop: for the paper example, and for a
// tightened copy whose StopAtDeadlineMiss analysis stops at its first
// round (the stopped marker).
func TestAnalyzeBinaryRoundTrip(t *testing.T) {
	s := New(Options{})
	tight := experiments.PaperSystem()
	tight.Transactions[0].Deadline = 10
	var body []byte
	for _, c := range []struct {
		sys  *model.System
		opt  OptionsSpec
		stop bool
	}{{experiments.PaperSystem(), OptionsSpec{}, false}, {tight, OptionsSpec{StopAtDeadlineMiss: true}, true}} {
		var jsonResp AnalyzeResponse
		w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: spec.FromSystem(c.sys), Options: c.opt}, &jsonResp)
		if w.Code != http.StatusOK {
			t.Fatalf("json status %d: %s", w.Code, w.Body.String())
		}
		if jsonResp.Stopped != c.stop {
			t.Fatalf("json stopped %v, want %v", jsonResp.Stopped, c.stop)
		}

		var err error
		body, err = EncodeAnalyzeRequestBinary(c.sys, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		bw := doBinary(t, s, "/v1/analyze", body, true)
		if bw.Code != http.StatusOK {
			t.Fatalf("binary status %d: %s", bw.Code, bw.Body.String())
		}
		if ct := bw.Header().Get("Content-Type"); ct != ContentTypeBinary {
			t.Fatalf("binary response Content-Type = %q", ct)
		}
		resp, err := DecodeAnalyzeResponseBinary(bw.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Schedulable != jsonResp.Schedulable || resp.Converged != jsonResp.Converged ||
			resp.Stopped != jsonResp.Stopped || resp.Iterations != jsonResp.Iterations {
			t.Fatalf("binary verdict %+v != json verdict %+v", resp, jsonResp)
		}
		if len(resp.Transactions) != len(jsonResp.Transactions) {
			t.Fatalf("%d binary transactions, want %d", len(resp.Transactions), len(jsonResp.Transactions))
		}
		for i, tv := range resp.Transactions {
			jv := jsonResp.Transactions[i]
			if tv.Deadline != jv.Deadline || tv.Schedulable != jv.Schedulable ||
				(tv.Response == nil) != (jv.Response == nil) ||
				(tv.Response != nil && *tv.Response != *jv.Response) {
				t.Fatalf("transaction %d: binary %+v != json %+v", i, tv, jv)
			}
			if c.stop && tv.Schedulable {
				t.Fatalf("transaction %d: a stopped analysis reported schedulable", i)
			}
		}
	}

	// Binary request + default Accept still answers in JSON.
	jw := doBinary(t, s, "/v1/analyze", body, false)
	if jw.Code != http.StatusOK || jw.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("binary request without binary Accept: %d %q", jw.Code, jw.Header().Get("Content-Type"))
	}
}

// TestAnalyzeBinaryZeroDecode asserts the intern fast path end to end:
// repeated binary posts of one system are answered from the intern
// pool (binary_hits), the pool holds exactly one resident, and the
// counters flow service.Stats → /v1/stats.
func TestAnalyzeBinaryZeroDecode(t *testing.T) {
	s := New(Options{})
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const posts = 32
	for i := 0; i < posts; i++ {
		if w := doBinary(t, s, "/v1/analyze", body, true); w.Code != http.StatusOK {
			t.Fatalf("post %d: %d: %s", i, w.Code, w.Body.String())
		}
	}
	var st StatsResponse
	if w := do(t, s, "GET", "/v1/stats", nil, &st); w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	if st.BinaryHits != posts-1 {
		t.Fatalf("binary_hits = %d after %d duplicate posts, want %d", st.BinaryHits, posts, posts-1)
	}
	if st.Service.Resident != 1 {
		t.Fatalf("intern_resident = %d, want 1", st.Service.Resident)
	}
	if st.Service.InternHits != posts-1 || st.Service.InternMisses != 1 {
		t.Fatalf("intern hits/misses = %d/%d, want %d/1", st.Service.InternHits, st.Service.InternMisses, posts-1)
	}
	if st.Service.Queries != posts || st.Service.Hits != posts-1 {
		t.Fatalf("service queries/hits = %d/%d, want %d/%d", st.Service.Queries, st.Service.Hits, posts, posts-1)
	}
}

// TestAnalyzeBinaryInternsAcrossCodecs asserts a JSON post and a
// binary post of the same system share one resident: the JSON decode
// interns, the binary request finds it by wire hash with zero decode.
func TestAnalyzeBinaryInternsAcrossCodecs(t *testing.T) {
	s := New(Options{})
	if w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: paperFile()}, nil); w.Code != http.StatusOK {
		t.Fatalf("json post: %d", w.Code)
	}
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if w := doBinary(t, s, "/v1/analyze", body, true); w.Code != http.StatusOK {
		t.Fatalf("binary post: %d", w.Code)
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.Service.Resident != 1 || st.BinaryHits != 1 {
		t.Fatalf("resident = %d, binary_hits = %d; want 1, 1 (codecs did not share the resident)",
			st.Service.Resident, st.BinaryHits)
	}
	// And the verdict memo was shared too: the binary post was a hit.
	if st.Service.Hits != 1 {
		t.Fatalf("service hits = %d, want 1", st.Service.Hits)
	}
}

// TestAnalyzeBinaryOptions asserts the header flags and knobs arrive:
// a static binary request takes the static path, and a deadline of a
// few nanoseconds 504s.
func TestAnalyzeBinaryOptions(t *testing.T) {
	s := New(Options{})
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := doBinary(t, s, "/v1/analyze", body, true); w.Code != http.StatusOK {
		t.Fatalf("static binary: %d: %s", w.Code, w.Body.String())
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.Service.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Service.Misses)
	}

	slow := slowSystem(t)
	sys, err := slow.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	body, err = EncodeAnalyzeRequestBinary(sys, OptionsSpec{DeadlineMS: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if w := doBinary(t, s, "/v1/analyze", body, true); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("nanosecond deadline: %d, want 504", w.Code)
	}
}

// TestAnalyzeBinaryMalformed asserts hostile binary bodies are 400s —
// errors stay JSON whatever the Accept header says.
func TestAnalyzeBinaryMalformed(t *testing.T) {
	s := New(Options{})
	good, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	badVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(badVersion, 9)
	badSystem := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(badSystem[binaryReqHeaderSize:], 9) // system version word
	invalid := func() []byte {
		sys := experiments.PaperSystem()
		sys.Transactions[0].Period = -1 // decodes fine, fails Validate
		b, _ := EncodeAnalyzeRequestBinary(sys, OptionsSpec{})
		return b
	}()
	nanDeadline, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{DeadlineMS: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"empty":          {},
		"short-header":   good[:binaryReqHeaderSize-1],
		"bad-version":    badVersion,
		"header-only":    good[:binaryReqHeaderSize],
		"truncated-sys":  good[:len(good)-8],
		"trailing-bytes": append(append([]byte(nil), good...), 0),
		"bad-sys-ver":    badSystem,
		"invalid-system": invalid,
		"nan-deadline":   nanDeadline,
	} {
		w := doBinary(t, s, "/v1/analyze", body, true)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: error Content-Type %q, want JSON", name, ct)
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: error body %q: %v", name, w.Body.String(), err)
		}
	}
}

// TestSessionAnalyzeBinary asserts binary probes ride a session like
// JSON ones: the probe chain pins seeds, repeated bodies hit the
// intern pool, and session stats attribute the probes.
func TestSessionAnalyzeBinary(t *testing.T) {
	s := New(Options{})
	var sr SessionResponse
	if w := do(t, s, "POST", "/v1/session", &SessionRequest{}, &sr); w.Code != http.StatusOK {
		t.Fatalf("session create: %d", w.Code)
	}
	path := "/v1/session/" + sr.Token + "/analyze"

	sys := experiments.PaperSystem()
	body, err := EncodeAnalyzeRequestBinary(sys, OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	bw := doBinary(t, s, path, body, true)
	if bw.Code != http.StatusOK {
		t.Fatalf("binary probe: %d: %s", bw.Code, bw.Body.String())
	}
	if _, err := DecodeAnalyzeResponseBinary(bw.Body.Bytes()); err != nil {
		t.Fatal(err)
	}

	// An edited probe (JSON edit applies against the binary-accepted
	// base) proves the binary probe advanced the session base.
	var resp AnalyzeResponse
	w := do(t, s, "POST", path, &AnalyzeRequest{
		Edit: &EditSpec{Platforms: []PlatformEdit{{Index: 3, Alpha: 0.25, Delta: 2, Beta: 1}}},
	}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("edit after binary probe: %d: %s", w.Code, w.Body.String())
	}
	if resp.SessionStats == nil || resp.SessionStats.Probes != 2 {
		t.Fatalf("session stats after two probes: %+v", resp.SessionStats)
	}

	// Re-posting the first binary body is a zero-decode memo hit.
	if w := doBinary(t, s, path, body, true); w.Code != http.StatusOK {
		t.Fatalf("repeat binary probe: %d", w.Code)
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.BinaryHits != 1 {
		t.Fatalf("binary_hits = %d, want 1", st.BinaryHits)
	}
}

// TestDecodeAnalyzeResponseBinaryHostile asserts the client-side
// response decoder errors on truncated or oversized input.
func TestDecodeAnalyzeResponseBinaryHostile(t *testing.T) {
	mk := func(words ...uint64) []byte {
		buf := make([]byte, 0, 8*len(words))
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return buf
	}
	for name, body := range map[string][]byte{
		"empty":       {},
		"short":       mk(1, 0, 0),
		"bad-version": mk(2, 0, 0, 0, 0, 0, 0),
		"huge-count":  mk(1, 0, 0, 0, 0, 0, 1<<61),
		"trailing":    append(mk(1, 0, 0, 0, 0, 0, 0), 0),
	} {
		if _, err := DecodeAnalyzeResponseBinary(body); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// A legitimate unschedulable verdict carries +Inf and decodes to a
	// nil Response.
	ok := mk(1, 0, 1, 0, 0, math.Float64bits(0),
		1, math.Float64bits(40), math.Float64bits(math.Inf(1)), 0)
	resp, err := DecodeAnalyzeResponseBinary(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Transactions) != 1 || resp.Transactions[0].Response != nil || resp.Transactions[0].Schedulable {
		t.Fatalf("inf response decoded wrong: %+v", resp.Transactions)
	}
}

// TestAnalyzeHandlerAllocs locks the one-hash-per-request fix and the
// appending JSON encoder: neither the binary intern-hit path nor the
// JSON parse-memo-hit path re-encodes the system to fingerprint it,
// and the JSON response costs no allocation beyond the binary one.
// The ceilings are absolute per-request counts through
// httptest.NewRequest and NewRecorder, whose own allocations dominate
// both (19 for JSON, 22 for binary, whose request sets two headers).
func TestAnalyzeHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are meaningless")
	}
	s := New(Options{Service: service.New(service.Options{})})
	h := s.Handler()
	jsonBody, err := json.Marshal(&AnalyzeRequest{System: paperFile()})
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte, binary bool) {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		if binary {
			req.Header.Set("Content-Type", ContentTypeBinary)
			req.Header.Set("Accept", ContentTypeBinary)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	post(jsonBody, false) // warm parse memo + verdict memo
	post(binBody, true)   // warm intern pool

	// Per-op counts are integral; a rare mid-run GC emptying a
	// sync.Pool adds well under one.
	if allocs := testing.AllocsPerRun(200, func() { post(jsonBody, false) }); allocs >= 20 {
		t.Errorf("JSON hit path allocates %.2f/op, want at most 19", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { post(binBody, true) }); allocs >= 23 {
		t.Errorf("binary hit path allocates %.2f/op, want at most 22", allocs)
	}
}

// TestTransactionVerdictGuardBand: a response just past its deadline
// but inside the analysis's convergence tolerance (D + 5e-10 under the
// default ε = 1e-9) is schedulable at system level, so both codecs
// must report the transaction schedulable too.
func TestTransactionVerdictGuardBand(t *testing.T) {
	sys := experiments.PaperSystem()
	sys.Transactions[0].Deadline = 31 - 5e-10 // Γ1's response is 31
	s := New(Options{})

	var jsonResp AnalyzeResponse
	w := do(t, s, "POST", "/v1/analyze", &AnalyzeRequest{System: spec.FromSystem(sys)}, &jsonResp)
	if w.Code != http.StatusOK {
		t.Fatalf("json status %d: %s", w.Code, w.Body.String())
	}
	body, err := EncodeAnalyzeRequestBinary(sys, OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	bw := doBinary(t, s, "/v1/analyze", body, true)
	if bw.Code != http.StatusOK {
		t.Fatalf("binary status %d: %s", bw.Code, bw.Body.String())
	}
	binResp, err := DecodeAnalyzeResponseBinary(bw.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for codec, resp := range map[string]*AnalyzeResponse{"json": &jsonResp, "binary": binResp} {
		if r := resp.Transactions[0].Response; r == nil || *r != 31 {
			t.Fatalf("%s: Γ1 response %v, want 31", codec, r)
		}
		if !resp.Schedulable {
			t.Fatalf("%s: system verdict unschedulable, want schedulable inside the guard band", codec)
		}
		if !resp.Transactions[0].Schedulable {
			t.Fatalf("%s: Γ1 reported unschedulable while the system is schedulable", codec)
		}
	}
}
