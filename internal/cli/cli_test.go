package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/model"
	"hsched/internal/platform"
	"hsched/internal/sched"
	"hsched/internal/spec"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestAnalyzePaperExample(t *testing.T) {
	var out, errb bytes.Buffer
	code := Analyze(nil, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"tau1,4", "31.000", "schedulable: true", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestAnalyzeSensitivityFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := Analyze([]string{"-sensitivity"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "critical WCET scaling factor") {
		t.Errorf("missing sensitivity line:\n%s", out.String())
	}
}

func TestAnalyzeDumpAndReload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Analyze([]string{"-dump"}, &out, &errb); code != 0 {
		t.Fatalf("dump exit %d: %s", code, errb.String())
	}
	// The dump starts after the "no -spec" banner; find the JSON.
	s := out.String()
	idx := strings.Index(s, "{")
	if idx < 0 {
		t.Fatalf("no JSON in dump output")
	}
	path := filepath.Join(t.TempDir(), "sys.json")
	if err := writeFile(path, []byte(s[idx:])); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errb.Reset()
	if code := Analyze([]string{"-spec", path}, &out, &errb); code != 0 {
		t.Fatalf("reload exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "schedulable: true") {
		t.Errorf("reloaded analysis output:\n%s", out.String())
	}
}

func TestAnalyzeUnschedulableExitCode(t *testing.T) {
	doc := `{"platforms":[{"alpha":0.3,"delta":1,"beta":0}],
	         "transactions":[{"period":10,"tasks":[{"wcet":5,"priority":1,"platform":1}]}]}`
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, []byte(doc)); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := Analyze([]string{"-spec", path}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; out:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISS") {
		t.Errorf("missing MISS marker:\n%s", out.String())
	}
}

// TestAnalyzeVerdictGuardBand: a response of D + 5e-10 lies inside the
// default ε = 1e-9 guard band, so the system is schedulable and its
// row must read "ok", not "MISS".
func TestAnalyzeVerdictGuardBand(t *testing.T) {
	sys := experiments.PaperSystem()
	sys.Transactions[0].Deadline = 31 - 5e-10 // Γ1's response is 31
	doc, err := json.Marshal(spec.FromSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "band.json")
	if err := writeFile(path, doc); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := Analyze([]string{"-spec", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; out:\n%s%s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "MISS") {
		t.Errorf("schedulable system printed a MISS row:\n%s", out.String())
	}
}

// TestAnalyzeUnprovenVerdict: the holistic iteration ends on τ1,1's
// unbounded response in its first round, before any bound is final.
// τ2,1 (R 3 against deadline 20) and τ1,2 (R 8, its predecessor's
// unbounded response not yet propagated) must read "unproven", not
// "MISS": neither is proven to meet its deadline, nor to miss it. The
// system is not proven schedulable, so the exit code stays 2.
func TestAnalyzeUnprovenVerdict(t *testing.T) {
	sys := &model.System{
		Platforms: []platform.Params{{Alpha: 0.5, Delta: 1, Beta: 1}, {Alpha: 1}},
		Transactions: []model.Transaction{
			{Name: "Gamma1", Period: 10, Deadline: 100, Tasks: []model.Task{
				{WCET: 8, BCET: 4, Priority: 1, Platform: 0},
				{WCET: 1, BCET: 1, Priority: 2, Platform: 1},
			}},
			{Name: "Gamma2", Period: 20, Deadline: 20, Tasks: []model.Task{
				{WCET: 2, BCET: 1, Priority: 1, Platform: 1},
			}},
		},
	}
	doc, err := json.Marshal(spec.FromSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unbounded.json")
	if err := writeFile(path, doc); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := Analyze([]string{"-spec", path}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; out:\n%s%s", code, out.String(), errb.String())
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 8 {
			rows[f[0]] = f
		}
	}
	if r := rows["τ2,1"]; r == nil || r[5] != "3.000" || r[6] != "20.000" || r[7] != "unproven" {
		t.Errorf("τ2,1 row %v, want R 3.000, deadline 20.000, unproven:\n%s", r, out.String())
	}
	if r := rows["τ1,2"]; r == nil || r[7] != "unproven" {
		t.Errorf("τ1,2 row %v, want unproven:\n%s", r, out.String())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Analyze([]string{"-spec", "/nonexistent.json"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := Analyze([]string{"-bogus-flag"}, &out, &errb); code != 1 {
		t.Errorf("bad flag: exit %d, want 1", code)
	}
}

func TestSimulatePaperExample(t *testing.T) {
	var out, errb bytes.Buffer
	code := Simulate([]string{"-horizon", "1050", "-step", "0.01"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"realised by", "max end-to-end", "misses 0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSimulateEDFAndTrace(t *testing.T) {
	var out, errb bytes.Buffer
	code := Simulate([]string{"-horizon", "200", "-step", "0.01", "-policy", "edf", "-trace", "5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "release") {
		t.Errorf("trace not printed:\n%s", out.String())
	}
}

func TestSimulateBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Simulate([]string{"-mode", "chaotic"}, &out, &errb); code != 1 {
		t.Errorf("bad mode: exit %d, want 1", code)
	}
	if code := Simulate([]string{"-policy", "lottery"}, &out, &errb); code != 1 {
		t.Errorf("bad policy: exit %d, want 1", code)
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.json")
	var out, errb bytes.Buffer
	code := Generate([]string{"-seed", "7", "-platforms", "2", "-transactions", "4", "-o", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := Analyze([]string{"-spec", path}, &out, &errb); code != 0 && code != 2 {
		t.Fatalf("analysing generated spec: exit %d, stderr: %s", code, errb.String())
	}
}

func TestGenerateToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Generate([]string{"-seed", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `"platforms"`) {
		t.Errorf("no JSON on stdout:\n%s", out.String())
	}
}

func TestGenerateBadConfig(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Generate([]string{"-util", "1.5"}, &out, &errb); code != 1 {
		t.Errorf("bad util: exit %d, want 1", code)
	}
}

func TestExperCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Exper([]string{"-table", "3", "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "iteration,task,jitter,response\n") {
		t.Errorf("csv header missing:\n%s", out.String())
	}
	out.Reset()
	if code := Exper([]string{"-figure", "3", "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("figure csv exit %d", code)
	}
	if !strings.HasPrefix(out.String(), "t,zmin,zmax,lower,upper\n") {
		t.Errorf("figure csv header missing")
	}
	if code := Exper([]string{"-table", "1", "-csv"}, &out, &errb); code != 1 {
		t.Errorf("unsupported csv target: exit %d, want 1", code)
	}
}

func TestExperSingleArtefacts(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-table", "1"}, "phi_min"},
		{[]string{"-table", "2"}, "Pi3 (Integrator)"},
		{[]string{"-table", "3"}, "holistic iterations"},
		{[]string{"-figure", "3"}, "supply functions"},
		{[]string{"-figure", "5"}, "example application"},
		{[]string{"-ablation", "exact"}, "Ablation A1"},
		{[]string{"-ablation", "design"}, "Ablation A5"},
		{[]string{"-ablation", "network"}, "Ablation A6"},
		{[]string{"-ablation", "edf"}, "Ablation A7"},
		{[]string{"-ablation", "acceptance"}, "Ablation A8"},
		{[]string{"-ablation", "admission"}, "Ablation A9"},
		{[]string{"-ablation", "assign"}, "Ablation A10"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := Exper(c.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", c.args, code, errb.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: output missing %q", c.args, c.want)
		}
	}
}

// TestAssignPolicies: the assign subcommand runs every policy on the
// paper example, prints the installed priorities and the verdict, and
// exits 0.
func TestAssignPolicies(t *testing.T) {
	for _, policy := range []string{"rm", "dm", "hopa", "audsley"} {
		var out, errb bytes.Buffer
		if code := Assign([]string{"-policy", policy}, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", policy, code, errb.String())
		}
		for _, want := range []string{"policy: " + policy, "tau1,4", "schedulable: true"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output missing %q:\n%s", policy, want, out.String())
			}
		}
	}
}

// TestAssignCacheFlag: -cache prints the oracle's stats line, and on
// the Audsley search it must show memo hits and incremental probes —
// the acceptance criterion of the service-routed search layer — while
// installing exactly the priorities and bounds of a cold search.
func TestAssignCacheFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Assign([]string{"-policy", "audsley", "-cache"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "cache: queries=") {
		t.Fatalf("cache stats line missing:\n%s", s)
	}
	if strings.Contains(s, "delta-hits=0 ") {
		t.Errorf("audsley probes never rode the delta path:\n%s", s)
	}
	if strings.Contains(s, " hits=0 ") {
		t.Errorf("audsley probes never hit the memo:\n%s", s)
	}

	// The reference search probes a cold oracle: a no-op Recorder
	// makes every probe skip the memo and the session seed.
	sys := experiments.PaperSystem()
	res, ok, err := sched.Assign(context.Background(), sys, sched.PolicyAudsley, sched.AssignOptions{
		Analysis: analysis.Options{Recorder: func(int, *analysis.Result) {}},
	})
	if err != nil || !ok {
		t.Fatalf("cold reference search: ok %v, err %v", ok, err)
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(s, "\n") {
		if f := strings.Fields(line); len(f) >= 4 {
			rows[f[0]] = f[1:4]
		}
	}
	for i, tr := range sys.Transactions {
		for j, task := range tr.Tasks {
			want := []string{fmt.Sprintf("Pi%d", task.Platform+1), fmt.Sprint(task.Priority), fmt.Sprintf("%.3f", res.Tasks[i][j].Worst)}
			if got := rows[sys.TaskName(i, j)]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: printed %v, cold search installed %v", sys.TaskName(i, j), got, want)
			}
		}
	}
}

// TestAssignBadFlags: unknown policies and specs fail cleanly.
func TestAssignBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Assign([]string{"-policy", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("unknown policy: exit %d, want 1", code)
	}
	if code := Assign([]string{"-spec", "/does/not/exist.json"}, &out, &errb); code != 1 {
		t.Errorf("missing spec: exit %d, want 1", code)
	}
}

func TestAnalyzeCacheFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Analyze([]string{"-cache"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cache: queries=1") {
		t.Errorf("cache stats line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "schedulable: true") {
		t.Errorf("verdict missing with -cache:\n%s", out.String())
	}
}

func TestExperCacheFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Exper([]string{"-ablation", "acceptance", "-cache", "-workers", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Ablation A8") {
		t.Errorf("acceptance table missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cache: queries=") {
		t.Errorf("cache stats line missing:\n%s", out.String())
	}
	// CSV mode keeps stdout machine-readable: stats go to stderr.
	out.Reset()
	errb.Reset()
	if code := Exper([]string{"-ablation", "acceptance", "-cache", "-csv", "-workers", "2"}, &out, &errb); code != 0 {
		t.Fatalf("csv exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "cache: queries=") {
		t.Errorf("stats leaked into CSV stdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "cache: queries=") {
		t.Errorf("stats missing from stderr in csv mode:\n%s", errb.String())
	}
}

func TestBench(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Bench([]string{"-systems", "4", "-queries", "64", "-goroutines", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"throughput:", "p50=", "p99=", "cache: queries=64"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("bench output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBenchJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Bench([]string{"-workload", "assign", "-systems", "4", "-mutations", "2", "-queries", "24", "-goroutines", "2", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Queries    int     `json:"queries"`
		Throughput float64 `json:"throughput_qps"`
		Latency    struct {
			P99us float64 `json:"p99_us"`
		} `json:"latency"`
		Cache struct {
			Queries      int64   `json:"queries"`
			DeltaHits    int64   `json:"delta_hits"`
			RoundsSaved  int64   `json:"rounds_saved"`
			DeltaHitRate float64 `json:"delta_hit_rate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bench -json output is not valid JSON: %v\n%s", err, out.String())
	}
	// Each query is one search, which probes the service at least once.
	if rep.Queries != 24 || rep.Cache.Queries < 24 {
		t.Errorf("report queries = %d/%d, want 24 searches of at least one probe each", rep.Queries, rep.Cache.Queries)
	}
	if rep.Throughput <= 0 || rep.Latency.P99us <= 0 {
		t.Errorf("report missing throughput/latency: %+v", rep)
	}
	// The session-driven searches must exercise the delta path.
	if rep.Cache.DeltaHits == 0 || rep.Cache.RoundsSaved == 0 {
		t.Errorf("assign bench never hit the delta path: %+v", rep)
	}
}

// TestBenchDeltaOff: the delta path has no off-switch — bench, assign
// and serve reject a -delta flag as undefined — and the default preset,
// which holds no session, reports zero delta hits. serve also gets an
// address it cannot listen on, so it returns even if it parsed -delta.
func TestBenchDeltaOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  func([]string, io.Writer, io.Writer) int
		args []string
	}{
		{"bench", Bench, []string{"-delta=false"}},
		{"assign", Assign, []string{"-delta=false"}},
		{"serve", Serve, []string{"-addr", "256.0.0.1:0", "-delta=false"}},
	} {
		var out, errb bytes.Buffer
		code := tc.cmd(tc.args, &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), "flag provided but not defined: -delta") {
			t.Errorf("%s -delta=false: exit %d, stderr %q; want an undefined-flag error", tc.name, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := Bench([]string{"-systems", "4", "-mutations", "1", "-queries", "12", "-goroutines", "2", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Cache struct {
			Misses    int64 `json:"misses"`
			DeltaHits int64 `json:"delta_hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Misses == 0 || rep.Cache.DeltaHits != 0 {
		t.Errorf("sessionless preset: %+v, want misses and no delta hits", rep)
	}
}

func TestBenchBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Bench([]string{"-queries", "0"}, &out, &errb); code != 1 {
		t.Errorf("zero queries: exit %d, want 1", code)
	}
	if code := Bench([]string{"-nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown flag: exit %d, want 1", code)
	}
}

func TestBenchExactHeavyWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Bench([]string{"-workload", "exact-heavy", "-systems", "3", "-mutations", "1", "-queries", "48", "-goroutines", "2", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Workload string `json:"workload"`
		Exact    bool   `json:"exact"`
		Cache    struct {
			ScenariosPruned int64 `json:"scenarios_pruned"`
			SubtreesPruned  int64 `json:"subtrees_pruned"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bench -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Workload != "exact-heavy" || !rep.Exact {
		t.Errorf("preset not applied: %+v", rep)
	}
	// The single-platform high-interference population must route
	// through the exact sweep and engage the admissible bounds — both
	// per-scenario skips and whole-subtree jumps.
	if rep.Cache.ScenariosPruned <= 0 {
		t.Errorf("exact-heavy bench pruned no scenarios: %+v", rep)
	}
	if rep.Cache.SubtreesPruned <= 0 {
		t.Errorf("exact-heavy bench pruned no subtrees: %+v", rep)
	}
	if code := Bench([]string{"-workload", "nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
}

// TestBenchAssignWorkload: the assign preset runs whole Audsley
// searches against the shared service; the report must show far more
// oracle probes than queries (each query is a search) and the probe
// traffic riding the memo and the delta path.
func TestBenchAssignWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Bench([]string{"-workload", "assign", "-systems", "4", "-mutations", "1", "-queries", "12", "-goroutines", "2", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Workload string `json:"workload"`
		Queries  int    `json:"queries"`
		Cache    struct {
			Queries   int64 `json:"queries"`
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			DeltaHits int64 `json:"delta_hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bench -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Workload != "assign" || rep.Queries != 12 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Cache.Queries <= int64(rep.Queries) {
		t.Errorf("cache queries %d should far exceed the %d searches (oracle probes)", rep.Cache.Queries, rep.Queries)
	}
	if rep.Cache.Hits+rep.Cache.Misses != rep.Cache.Queries {
		t.Errorf("stats inconsistent: %+v", rep.Cache)
	}
	if rep.Cache.Hits == 0 || rep.Cache.DeltaHits == 0 {
		t.Errorf("assign workload never hit the memo/delta path: %+v", rep.Cache)
	}
}

// TestBenchExactSearchWorkload: the exact-search preset runs whole
// Audsley searches with the exact oracle, so the report must show the
// searches fanning out into many exact probes and the probes engaging
// the branch-and-bound sweep (pruned scenarios).
func TestBenchExactSearchWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Bench([]string{"-workload", "exact-search", "-systems", "2", "-mutations", "1", "-queries", "4", "-goroutines", "2", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep struct {
		Workload string `json:"workload"`
		Exact    bool   `json:"exact"`
		Queries  int    `json:"queries"`
		Cache    struct {
			Queries         int64 `json:"queries"`
			ScenariosPruned int64 `json:"scenarios_pruned"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bench -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Workload != "exact-search" || !rep.Exact {
		t.Errorf("preset not applied: %+v", rep)
	}
	if rep.Cache.Queries <= int64(rep.Queries) {
		t.Errorf("cache queries %d should far exceed the %d searches (oracle probes)", rep.Cache.Queries, rep.Queries)
	}
	if rep.Cache.ScenariosPruned <= 0 {
		t.Errorf("exact-search bench pruned no scenarios: %+v", rep.Cache)
	}
}

func TestBenchCompare(t *testing.T) {
	dir := t.TempDir()
	run := func(args ...string) (int, string) {
		var out, errb bytes.Buffer
		code := Bench(args, &out, &errb)
		return code, out.String() + errb.String()
	}

	// Record a baseline of this machine, then compare against doctored
	// copies: an unreachable baseline must gate, a slow one must pass.
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := Bench([]string{"-systems", "4", "-queries", "64", "-goroutines", "2", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("baseline run: exit %d, stderr: %s", code, errb.String())
	}
	var rep map[string]any
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	write := func(path string, qps float64) {
		rep["throughput_qps"] = qps
		data, err := json.Marshal(map[string]any{"default": rep})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(base, 1e12) // no machine reaches 10^12 qps: must regress
	if code, log := run("-systems", "4", "-queries", "64", "-goroutines", "2", "-compare", base); code != 1 || !strings.Contains(log, "regression") {
		t.Errorf("inflated baseline: exit %d, log:\n%s", code, log)
	}
	write(base, 1) // any machine beats 1 qps: must pass
	if code, log := run("-systems", "4", "-queries", "64", "-goroutines", "2", "-compare", base); code != 0 || !strings.Contains(log, "ok") {
		t.Errorf("floor baseline: exit %d, log:\n%s", code, log)
	}

	// Missing entry and missing file are hard errors, not silent passes.
	if code, _ := run("-workload", "exact-heavy", "-systems", "2", "-queries", "16", "-compare", base); code != 1 {
		t.Errorf("missing workload entry: exit %d, want 1", code)
	}
	if code, _ := run("-systems", "4", "-queries", "16", "-compare", filepath.Join(dir, "absent.json")); code != 1 {
		t.Errorf("missing baseline file: exit %d, want 1", code)
	}
}
