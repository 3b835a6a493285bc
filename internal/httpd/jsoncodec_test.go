package httpd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// sameSystem reports whether two systems are equal bit for bit, names
// included: the fingerprint encodes every field's exact float bits
// (so -0 and 0 differ), and DeepEqual checks the shapes.
func sameSystem(a, b *model.System) bool {
	return reflect.DeepEqual(a, b) && a.Fingerprint() == b.Fingerprint()
}

func sameOptions(a, b OptionsSpec) bool {
	return a == b && math.Float64bits(a.DeadlineMS) == math.Float64bits(b.DeadlineMS)
}

// checkAnalyzeCodec decodes an analyze body both ways and fails unless
// they agree: both reject with the same status class, or both accept
// the same system and options. The accepted system must not alias the
// body, which is overwritten before the comparison. It returns the
// accepted system, nil on a reject.
func checkAnalyzeCodec(t *testing.T, body []byte, scoped bool, base *model.System) (*model.System, OptionsSpec) {
	t.Helper()
	want, wantOpt, wantErr := referenceAnalyzeJSON(body, scoped, base)
	in := bytes.Clone(body)
	got, gotOpt, gotErr := decodeAnalyzeJSON(in, scoped, base)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("scoped=%v body %q: decoder error %v, encoding/json error %v", scoped, body, gotErr, wantErr)
	}
	if wantErr != nil {
		if errStatus(gotErr) != errStatus(wantErr) {
			t.Fatalf("scoped=%v body %q: status %d (%v), encoding/json %d (%v)",
				scoped, body, errStatus(gotErr), gotErr, errStatus(wantErr), wantErr)
		}
		return nil, OptionsSpec{}
	}
	for i := range in {
		in[i] = 'x'
	}
	if !sameSystem(got, want) {
		t.Fatalf("scoped=%v body %q: decoded system\n%+v\nencoding/json\n%+v", scoped, body, got, want)
	}
	if !sameOptions(gotOpt, wantOpt) {
		t.Fatalf("scoped=%v body %q: options %+v, encoding/json %+v", scoped, body, gotOpt, wantOpt)
	}
	return got, gotOpt
}

// checkAssignCodec does the same for an assign body and, when it is
// accepted, checks the assign response encoder on a result dressed
// from the decoded system.
func checkAssignCodec(t *testing.T, body []byte, tmpl *analysis.Result) {
	t.Helper()
	want, wantReq, wantErr := referenceAssignJSON(body)
	in := bytes.Clone(body)
	var b assignBody
	gotErr := b.decode(in)
	var got *model.System
	if gotErr == nil {
		if !b.system.set {
			gotErr = spec.ErrInvalid
		} else {
			got, gotErr = b.system.draft.System()
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("assign body %q: decoder error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		if errStatus(gotErr) != errStatus(wantErr) {
			t.Fatalf("assign body %q: status %d (%v), encoding/json %d (%v)",
				body, errStatus(gotErr), gotErr, errStatus(wantErr), wantErr)
		}
		return
	}
	for i := range in {
		in[i] = 'x'
	}
	if !sameSystem(got, want) || b.policy != wantReq.Policy || b.iterations != wantReq.Iterations || !sameOptions(b.options, wantReq.Options) {
		t.Fatalf("assign body %q: decoded %+v policy %q iterations %d options %+v, encoding/json %+v %+v",
			body, got, b.policy, b.iterations, b.options, want, wantReq)
	}
	checkAssignEncoding(t, resultFor(tmpl, got, b.options), got, b.options.Bounds, b.options.DeadlineMS, b.policy)
}

// resultFor dresses sys in a result of the template's verdict state (a
// converged analysis), its bounds read off the task parameters and its
// counters off the options, so that hostile input reaches the encoder
// as hostile floats and names. An odd priority makes a task's worst
// case unbounded.
func resultFor(tmpl *analysis.Result, sys *model.System, opt OptionsSpec) *analysis.Result {
	res := *tmpl
	res.System = sys
	res.Tasks = make([][]analysis.TaskResult, len(sys.Transactions))
	for i, tr := range sys.Transactions {
		for _, k := range tr.Tasks {
			worst := k.WCET
			if k.Priority%2 != 0 {
				worst = math.Inf(1)
			}
			res.Tasks[i] = append(res.Tasks[i], analysis.TaskResult{Offset: k.Offset, Jitter: k.Jitter, Best: k.BCET, Worst: worst})
		}
	}
	res.Schedulable = opt.Static
	res.StoppedAtGoal = opt.StopAtDeadlineMiss
	res.Iterations = opt.MaxIterations
	res.ScenariosPruned = int64(opt.MaxScenarios)
	res.SubtreesPruned = int64(opt.Workers)
	res.Delta = nil
	if opt.Exact {
		res.Delta = &analysis.DeltaInfo{CleanTasks: opt.Workers, DirtyTasks: -opt.Workers, ReplayedRounds: opt.MaxIterations, TaskRoundsSaved: opt.MaxScenarios}
	}
	return &res
}

// captured runs a response writer into a benchWriter and returns the
// body, failing unless it is a 200 JSON body.
func captured(t *testing.T, write func(http.ResponseWriter)) []byte {
	t.Helper()
	w := &benchWriter{hdr: make(http.Header)}
	write(w)
	if w.code != http.StatusOK || w.hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", w.code, w.hdr.Get("Content-Type"))
	}
	return w.buf.Bytes()
}

func checkAnalyzeEncoding(t *testing.T, res *analysis.Result, bounds bool, elapsedMS float64, ss *service.SessionStats) {
	t.Helper()
	resp := buildAnalyzeResponse(res, bounds, elapsedMS)
	resp.SessionStats = ss
	want, err := referenceJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	got := captured(t, func(w http.ResponseWriter) { writeAnalyzeJSON(w, res, bounds, elapsedMS, ss) })
	if !bytes.Equal(got, want) {
		t.Fatalf("analyze response\n got %q\nwant %q", got, want)
	}
}

func checkAssignEncoding(t *testing.T, res *analysis.Result, sys *model.System, bounds bool, elapsedMS float64, policy string) {
	t.Helper()
	want, err := referenceJSON(referenceAssignResponse(res, sys, bounds, elapsedMS, policy))
	if err != nil {
		t.Fatal(err)
	}
	got := captured(t, func(w http.ResponseWriter) { writeAssignJSON(w, res, sys, bounds, elapsedMS, policy) })
	if !bytes.Equal(got, want) {
		t.Fatalf("assign response\n got %q\nwant %q", got, want)
	}
}

// perfbenchBodies are request bodies of the shapes perfbench sends:
// an exact-cold analyze body, the base system and one set-edit body of
// an admit-edit session block, and an assign-search body.
type perfbenchBodies struct {
	exactCold, edit, assign []byte
	editBase                *model.System
}

func makePerfbenchBodies(tb testing.TB, seed int64) perfbenchBodies {
	tb.Helper()
	must := func(b []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	system := func(c gen.Config) *model.System {
		sys, err := gen.System(c)
		if err != nil {
			tb.Fatal(err)
		}
		return sys
	}
	var p perfbenchBodies
	p.exactCold = must(json.Marshal(&AnalyzeRequest{
		System: spec.FromSystem(system(gen.Config{
			Seed: seed, Platforms: 1, Transactions: 4, ChainLen: 4,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.35, AlphaMin: 0.5, AlphaMax: 0.9,
			RandomPriorities: true,
		})),
		Options: OptionsSpec{Exact: true, StopAtDeadlineMiss: true},
	}))
	rng := rand.New(rand.NewSource(seed))
	p.editBase = system(gen.Config{
		Seed: rng.Int63(), Platforms: 3, Transactions: 8 + rng.Intn(5), ChainLen: 4,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9,
	})
	tx := 1 + rng.Intn(len(p.editBase.Transactions)-1)
	tr := spec.FromSystem(p.editBase).Transactions[tx]
	f := 0.6 + 0.8*rng.Float64()
	for j := range tr.Tasks {
		tr.Tasks[j].WCET *= f
		tr.Tasks[j].BCET *= f
	}
	p.edit = must(json.Marshal(&AnalyzeRequest{Edit: &EditSpec{Set: []TransactionSet{{Index: tx + 1, Transaction: tr}}}}))
	p.assign = must(json.Marshal(&AssignRequest{
		System: spec.FromSystem(system(gen.Config{
			Seed: seed, Platforms: 2, Transactions: 4, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9,
		})),
		Policy:  "audsley",
		Options: OptionsSpec{MaxIterations: 32},
	}))
	return p
}

// codecSeeds are the fuzz seeds: perfbench-shaped bodies and the corner
// cases of encoding/json's acceptance rules.
func codecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	paper, err := json.Marshal(paperFile())
	if err != nil {
		tb.Fatal(err)
	}
	p := makePerfbenchBodies(tb, 7)
	one := `{"platforms":[{"alpha":0.5,"delta":1,"beta":1}],"transactions":[{"name":"g","period":10,"tasks":[{"name":"t","wcet":1,"priority":2,"platform":1}]}]}`
	seeds := []string{
		string(paper),
		`{"system":` + string(paper) + `,"options":{"bounds":true,"exact":true}}`,
		string(p.exactCold), string(p.edit), string(p.assign),
		// Case-variant and folded keys: U+212A (Kelvin sign) folds to k,
		// U+017F (long s) to s.
		`{"SYSTEM":` + one + `,"Options":{"Bounds":true,"DEADLINE_MS":5}}`,
		`{"ſystem":{"PLATFORMS":[{"ALPHA":0.5}],"transactionſ":[{"Period":10,"tasKs":[{"WCET":1,"Platform":1}]}]}}`,
		`{"ſystem":{"platforms":[{"alpha":1}],"transactions":[{"period":10,"tasKs":[{"wcet":1,"platform":1}]}]}}`,
		// Repeated keys, merges and nulls.
		`{"system":` + one + `,"system":{"transactions":[{"tasks":[{"wcet":2}]}]}}`,
		`{"system":` + one + `,"system":null}`,
		`{"system":null,"platforms":[{"alpha":1}],"transactions":[{"period":5,"tasks":[{"wcet":1,"platform":1}]}]}`,
		`{"platforms":[{"alpha":1}],"transactions":[{"period":9,"tasks":[{"wcet":1,"platform":1,"name":"a"},{"wcet":2,"platform":1,"name":"b"}],"tasks":[{"wcet":3}],"tasks":[{"wcet":4},null]}]}`,
		`{"platforms":[{"alpha":1}],"transactions":[{"period":9,"tasks":[{"wcet":1,"platform":1}],"tasks":[],"tasks":[{"wcet":2}]}]}`,
		`{"platforms":[{"alpha":1}],"transactions":[{"period":9,"deadline":null,"tasks":[{"wcet":1,"platform":1,"name":null}]}],"options":null}`,
		`{"system":` + one + `,"options":{"exact":true},"options":{"workers":2},"options":null}`,
		`{"edit":{"set":[{"index":1,"transaction":{"period":50,"tasks":[{"wcet":1,"priority":1,"platform":1}]}}],"remove":[3,2],"add":null}}`,
		`{"edit":{"platforms":[{"index":1,"alpha":0.8}],"remove":[2,2]}}`,
		`{"edit":{},"edit":null}`,
		`{"edit":{"add":[{"period":100,"tasks":[{"wcet":1,"platform":3}]}]},"system":` + one + `}`,
		// Numbers: fractions and exponents in int fields, out of range.
		`{"platforms":[{"alpha":1}],"transactions":[{"period":9,"tasks":[{"wcet":1,"platform":1.0}]}]}`,
		`{"platforms":[{"alpha":1}],"transactions":[{"period":9,"tasks":[{"wcet":1,"platform":1e2}]}]}`,
		`{"platforms":[{"alpha":1}],"transactions":[{"period":9,"tasks":[{"wcet":1e999,"platform":1}]}]}`,
		`{"platforms":[{"alpha":1}],"transactions":[{"period":-0,"deadline":1e-999,"tasks":[{"wcet":1,"platform":1,"priority":-9223372036854775808}]}]}`,
		`{"system":` + one + `,"options":{"workers":99999999999999999999}}`,
		// Escaped and invalid-UTF-8 names.
		`{"platforms":[{"alpha":1,"name":"é"}],"transactions":[{"name":"😀\ud800x\"\\\n\u2028\/","period":9,"tasks":[{"wcet":1,"platform":1,"name":"\udc00\ud800𐀀"}]}]}`,
		"{\"platforms\":[{\"alpha\":1}],\"transactions\":[{\"name\":\"\xff\xfe\xe2\x82\",\"period\":9,\"tasks\":[{\"wcet\":1,\"platform\":1,\"name\":\"\xed\xa0\x80\x7f\"}]}]}",
		`{"platforms":[{"alpha":1}],"transactions":[{"name":"\x","period":9}]}`,
		// Trailing bytes and other syntax.
		one + ` x`,
		one + `{}`,
		one + " \t\r\n",
		`{"system":` + one + `,}`,
		`{"system" ` + one + `}`,
		`[` + one + `]`,
		`null`, ``, ` `, `"system"`, `{"unknown":[1,{"a":[true,false,null]},"s",-1.5e+3]}`,
		`{"policy":"rm","iterations":3,"system":` + one + `}`,
		`{"policy":"hopa","iterations":1.5,"system":` + one + `}`,
		`{"policy":5,"system":` + one + `}`,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzJSONCodecMatchesStdlib feeds the same bytes to the three JSON
// routes' decoders — a sessionless analyze body, a session body
// against a fixed base (a full spec or an edit), and an assign body —
// and to their encoding/json references: both must accept or reject
// alike, with the same status class, and an accepted body must decode
// to the same system bit for bit and the same options. Every accepted
// body also drives the response encoders, whose bytes must equal
// json.Encoder's.
func FuzzJSONCodecMatchesStdlib(f *testing.F) {
	for _, s := range codecSeeds(f) {
		f.Add(s)
	}
	base := experiments.PaperSystem()
	baseFP := base.Fingerprint()
	tmpl, err := analysis.Analyze(experiments.PaperSystem(), analysis.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if sys, opt := checkAnalyzeCodec(t, body, false, nil); sys != nil {
			checkAnalyzeEncoding(t, resultFor(tmpl, sys, opt), opt.Bounds, opt.DeadlineMS, nil)
		}
		if sys, opt := checkAnalyzeCodec(t, body, true, base); sys != nil {
			ss := &service.SessionStats{Probes: int64(opt.Workers), MemoHits: int64(opt.MaxIterations), Executed: 1, DeltaHits: -2, RoundsSaved: int64(opt.MaxScenarios)}
			checkAnalyzeEncoding(t, resultFor(tmpl, sys, opt), !opt.Bounds, opt.DeadlineMS, ss)
		}
		if base.Fingerprint() != baseFP {
			t.Fatal("an edit changed the session's base system")
		}
		checkAssignCodec(t, body, tmpl)
	})
}

// TestJSONResponseEncoderMatchesStdlib covers every response shape —
// terse, bounds, delta, session_stats, stopped, assign priorities — on
// real analyses, then hostile floats and names on dressed copies: the
// appended bytes must equal json.Encoder's.
func TestJSONResponseEncoderMatchesStdlib(t *testing.T) {
	paper := experiments.PaperSystem()
	approx, err := analysis.Analyze(paper, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := analysis.Analyze(paper, analysis.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	tight := paper.Clone()
	tight.Transactions[0].Deadline = 20
	stopped, err := analysis.Analyze(tight, analysis.Options{StopAtDeadlineMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped.StoppedAtGoal || exact.ScenariosPruned == 0 {
		t.Fatalf("fixtures: stopped %v, scenarios pruned %d", stopped.StoppedAtGoal, exact.ScenariosPruned)
	}
	withDelta := *approx
	withDelta.Delta = &analysis.DeltaInfo{CleanTasks: 5, DirtyTasks: 2, ReplayedRounds: 4, TaskRoundsSaved: 17}
	ss := &service.SessionStats{Probes: 3, MemoHits: 1, Executed: 2, DeltaHits: 1, RoundsSaved: 17}

	// Hostile floats in every float member, and hostile names.
	floats := []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.Inf(1), math.NaN(), math.Inf(-1),
		1e-6, 999999999999999900000, 0.1, -2.5e-300, 1.7976931348623157e308, 123456789.125}
	names := []string{"", "\x00\x01\x1f", "\t\n\r\b\f", `"q\b/`, "<a&b>", "\u2028x\u2029", "\xff", "\xe2\x28\xa1",
		"\xe2\x82", "\ufffd", "\x7f", "τ1,1😀", "\xed\xa0\x80"}
	hostile := *approx
	hostile.System = paper.Clone()
	hostile.Tasks = nil
	k := 0
	for i := range hostile.System.Transactions {
		tr := &hostile.System.Transactions[i]
		tr.Name = names[i%len(names)]
		tr.Deadline = floats[i%4] // finite: json.Encoder fails on a non-finite plain float
		var row []analysis.TaskResult
		for j := range tr.Tasks {
			tr.Tasks[j].Name = names[(k+3)%len(names)]
			row = append(row, analysis.TaskResult{
				Offset: floats[k%len(floats)], Jitter: floats[(k+1)%len(floats)],
				Best: floats[(k+2)%len(floats)], Worst: floats[(k+3)%len(floats)],
			})
			k++
		}
		hostile.Tasks = append(hostile.Tasks, row)
	}

	for _, tc := range []struct {
		name string
		res  *analysis.Result
		ss   *service.SessionStats
	}{
		{"approximate", approx, nil},
		{"exact", exact, nil},
		{"stopped", stopped, nil},
		{"delta", &withDelta, nil},
		{"session", &withDelta, ss},
		{"hostile", &hostile, ss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, elapsed := range []float64{0, 0.0123, 1e-7, 1e21, math.Copysign(0, -1)} {
				checkAnalyzeEncoding(t, tc.res, false, elapsed, tc.ss)
				checkAnalyzeEncoding(t, tc.res, true, elapsed, tc.ss)
				for _, policy := range []string{"audsley", "\u2028<&>\xff"} {
					checkAssignEncoding(t, tc.res, tc.res.System, false, elapsed, policy)
					checkAssignEncoding(t, tc.res, tc.res.System, true, elapsed, policy)
				}
			}
		})
	}
	for _, s := range names {
		if got, want := appendJSONString(nil, s), mustMarshalString(t, s); !bytes.Equal(got, want) {
			t.Errorf("string %q: %q, encoding/json %q", s, got, want)
		}
	}
}

func mustMarshalString(t *testing.T, s string) []byte {
	t.Helper()
	b, err := referenceJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(b, []byte("\n"))
}

// TestJSONDecodeCopiesOutOfBodyBuffer: a decoded system outlives its
// request in the parse memo and the intern pool, while the body's
// pooled read buffer is handed to the next request. Posting other
// bodies of the same size after the first must leave the first one's
// memo entry and resident system with their names and options. A
// decoder that took strings pointing into the buffer fails here.
func TestJSONDecodeCopiesOutOfBodyBuffer(t *testing.T) {
	s := New(Options{Service: service.New(service.Options{})})
	body := func(name string) []byte {
		f := paperFile()
		for i := range f.Transactions {
			f.Transactions[i].Name = strings.Repeat(name, 4)
			for j := range f.Transactions[i].Tasks {
				f.Transactions[i].Tasks[j].Name = strings.Repeat(name, 3)
			}
		}
		b, err := json.Marshal(&AnalyzeRequest{System: f, Options: OptionsSpec{Bounds: true, MaxIterations: 77}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(b []byte) {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(b))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	first := body("a")
	post(first)
	for _, name := range []string{"b", "c", "d", "e"} {
		post(body(name))
	}
	cached, ok := s.parse.get(sha256.Sum256(first))
	if !ok {
		t.Fatal("first body left the parse memo")
	}
	if cached.opt != (OptionsSpec{Bounds: true, MaxIterations: 77}) {
		t.Errorf("memo entry options %+v", cached.opt)
	}
	resident, ok := s.svc.Interned(cached.fp)
	if !ok {
		t.Fatal("first system left the intern pool")
	}
	for _, sys := range []*model.System{cached.sys, resident} {
		for i := range sys.Transactions {
			tr := &sys.Transactions[i]
			if tr.Name != "aaaa" {
				t.Fatalf("transaction %d name %q, want aaaa", i+1, tr.Name)
			}
			for j := range tr.Tasks {
				if tr.Tasks[j].Name != "aaa" {
					t.Fatalf("task %d,%d name %q, want aaa", i+1, j+1, tr.Tasks[j].Name)
				}
			}
		}
		if sys.Fingerprint() != cached.fp {
			t.Fatal("resident system no longer matches its fingerprint")
		}
	}
}

// TestJSONCodecNestingLimit: encoding/json rejects a document nesting
// more than 10000 arrays and objects, even inside a skipped member; so
// must the decoder, on both routes.
func TestJSONCodecNestingLimit(t *testing.T) {
	paper, err := json.Marshal(paperFile())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := analysis.Analyze(experiments.PaperSystem(), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{9999, 10000, 10001} {
		// The top-level object and the skipped member's array count too.
		nested := strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1)
		body := []byte(`{"system":` + string(paper) + `,"skipped":` + nested + `}`)
		sys, _ := checkAnalyzeCodec(t, body, false, nil)
		if accepted := sys != nil; accepted != (depth <= 10000) {
			t.Errorf("depth %d: accepted %v", depth, accepted)
		}
		checkAssignCodec(t, body, tmpl)
	}
}
