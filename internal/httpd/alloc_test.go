package httpd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hsched/internal/experiments"
	"hsched/internal/service"
)

// TestAnalyzeHandlerBinaryZeroAllocs locks the binary-codec hit path
// at zero allocations per request end-to-end through the handler:
// pooled status writer and body buffer, one SHA-256 over the wire
// bytes, intern-pool and verdict-memo stripe hits, and the pooled
// binary response encode. The harness reuses the request, reader and
// writer (benchWriter) so it measures the handler, not itself — the
// same discipline as BenchmarkAnalyzeHandlerBinary.
func TestAnalyzeHandlerBinaryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are meaningless")
	}
	s := New(Options{Service: service.New(service.Options{})})
	h := s.Handler()
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/analyze", rd)
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	w := &benchWriter{hdr: make(http.Header)}
	post := func() {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
	}
	// First post misses (decode + install), a few more warm the pools.
	for i := 0; i < 8; i++ {
		post()
		if w.code != http.StatusOK {
			t.Fatalf("warmup status %d: %s", w.code, w.buf.String())
		}
	}
	allocs := testing.AllocsPerRun(500, post)
	// Per-op allocation counts are integral, so a real regression reads
	// ≥ 1.0; a rare mid-run GC emptying a sync.Pool reads ≪ 1.
	if allocs >= 1 {
		t.Errorf("binary hit path allocates %.2f/op, want 0", allocs)
	}
}

// TestSessionAnalyzeBinaryAllocs gates the session-scoped binary
// memo-hit probe at one allocation per request: the mux's {token}
// path-value match. Session lookup, the probe lock, the intern-pool
// and session-memo hits and the binary response allocate nothing.
func TestSessionAnalyzeBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are meaningless")
	}
	s := New(Options{Service: service.New(service.Options{})})
	h := s.Handler()
	token := createSession(t, s, OptionsSpec{})
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/session/"+token+"/analyze", rd)
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	w := &benchWriter{hdr: make(http.Header)}
	post := func() {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 8; i++ {
		post()
		if w.code != http.StatusOK {
			t.Fatalf("warmup status %d: %s", w.code, w.buf.String())
		}
	}
	// Integral per-op counts: a regression to 2 reads ≥ 2.0, while a
	// rare mid-run GC emptying a sync.Pool adds well under one.
	if allocs := testing.AllocsPerRun(500, post); allocs >= 2 {
		t.Errorf("session binary hit path allocates %.2f/op, want at most 1", allocs)
	}
}
