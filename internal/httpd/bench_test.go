package httpd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/model"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// BenchmarkAnalyzeHandler measures the handler-only cost of a memo-hit
// analyze (no network): the per-request budget the transport adds on
// top of the in-process service ladder.
func BenchmarkAnalyzeHandler(b *testing.B) {
	s := New(Options{Service: service.New(service.Options{})})
	body, err := json.Marshal(&AnalyzeRequest{System: spec.FromSystem(experiments.PaperSystem())})
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyzePosts(b, s, body, false)
}

// BenchmarkAnalyzeHandlerBinary measures the binary intern-hit path:
// one SHA-256 over the wire bytes, an intern-pool lookup, a verdict
// memo hit, and the fixed-size binary response — the zero-decode
// counterpart of BenchmarkAnalyzeHandler's JSON parse-memo hit.
func BenchmarkAnalyzeHandlerBinary(b *testing.B) {
	s := New(Options{Service: service.New(service.Options{})})
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyzePosts(b, s, body, true)
}

// benchWriter is a minimal reusable ResponseWriter: unlike
// httptest.ResponseRecorder it does not clone the header map on every
// WriteHeader, so iterations measure the handler, not the recorder.
type benchWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *benchWriter) Header() http.Header         { return w.hdr }
func (w *benchWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }

func (w *benchWriter) reset() {
	w.code = 0
	w.buf.Reset()
}

// benchAnalyzePosts drives repeated /v1/analyze posts of one body
// through the handler. The request object, body reader and response
// writer are all reused across iterations, so the measurement is the
// handler path, not harness construction — the per-request cost a
// pipelining client sees past the transport.
func benchAnalyzePosts(b *testing.B, s *Server, body []byte, bin bool) {
	b.Helper()
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/analyze", rd)
	if bin {
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.Header.Set("Accept", ContentTypeBinary)
	}
	w := &benchWriter{hdr: make(http.Header)}
	post := func() {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
	}
	post()
	if w.code != http.StatusOK {
		b.Fatalf("warmup: %d: %s", w.code, w.buf.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
		if w.code != http.StatusOK {
			b.Fatal(w.code)
		}
	}
}

// BenchmarkColdDecodeJSON measures the server's cold JSON intake in
// isolation: decodeAnalyzeJSON (or, for the assign body, the assign
// decode and spec conversion) turning a never-seen body into a
// validated model.System, then its fingerprint — the work a fresh JSON
// body costs before any analysis. The bodies are the paper example and
// the perfbench shapes: an exact-cold body, an admit-edit set edit
// applied to its session's base, and an assign-search body.
func BenchmarkColdDecodeJSON(b *testing.B) {
	paper, err := json.Marshal(&AnalyzeRequest{System: spec.FromSystem(experiments.PaperSystem())})
	if err != nil {
		b.Fatal(err)
	}
	p := makePerfbenchBodies(b, 1)
	analyze := func(body []byte, scoped bool, base *model.System) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				sys, _, err := decodeAnalyzeJSON(body, scoped, base)
				if err != nil {
					b.Fatal(err)
				}
				if fp := sys.Fingerprint(); fp == (model.Fingerprint{}) {
					b.Fatal("zero fingerprint")
				}
			}
		}
	}
	b.Run("paper", analyze(paper, false, nil))
	b.Run("exact-cold", analyze(p.exactCold, false, nil))
	b.Run("admit-edit", analyze(p.edit, true, p.editBase))
	b.Run("assign", func(b *testing.B) {
		b.SetBytes(int64(len(p.assign)))
		b.ReportAllocs()
		for b.Loop() {
			var req assignBody
			if err := req.decode(p.assign); err != nil {
				b.Fatal(err)
			}
			sys, err := req.system.draft.System()
			if err != nil {
				b.Fatal(err)
			}
			if fp := sys.Fingerprint(); fp == (model.Fingerprint{}) {
				b.Fatal("zero fingerprint")
			}
		}
	})
}

// BenchmarkAnalyzeResponseJSON measures the analyze route's 200 body:
// the appending encoder writing the paper example's four-transaction
// result, terse and with per-task bounds, into a pooled buffer and one
// Write. It allocates nothing.
func BenchmarkAnalyzeResponseJSON(b *testing.B) {
	res, err := analysis.Analyze(experiments.PaperSystem(), analysis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bounds := range []bool{false, true} {
		name := "terse"
		if bounds {
			name = "bounds"
		}
		b.Run(name, func(b *testing.B) {
			w := &benchWriter{hdr: make(http.Header)}
			b.ReportAllocs()
			for b.Loop() {
				w.reset()
				writeAnalyzeJSON(w, res, bounds, 0.125, nil)
			}
			b.SetBytes(int64(w.buf.Len()))
		})
	}
}

// BenchmarkColdDecodeBinary measures the cold binary intake path: hash
// the wire bytes (which IS the fingerprint), unmarshal, validate — the
// work a never-seen binary body costs before any analysis.
func BenchmarkColdDecodeBinary(b *testing.B) {
	body, err := EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sysBytes, err := decodeBinaryAnalyzeRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		fp := model.Fingerprint(sha256.Sum256(sysBytes))
		if fp == (model.Fingerprint{}) {
			b.Fatal("zero fingerprint")
		}
		var sys model.System
		if err := sys.UnmarshalBinary(sysBytes); err != nil {
			b.Fatal(err)
		}
		if err := sys.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
