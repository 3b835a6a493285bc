package analysis_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/sched"
)

// goldenShape is one population of the cross-commit corpus: the paper
// system and the benchmark's analysis shapes (admit-edit, exact-cold,
// assign-search), so the corpus covers the systems the served analysis
// actually runs on.
type goldenShape struct {
	name  string
	seeds int
	// system draws the system of a seed.
	system func(seed int64) (*model.System, error)
}

func goldenShapes() []goldenShape {
	out := []goldenShape{
		{name: "paper", seeds: 1, system: func(int64) (*model.System, error) { return experiments.PaperSystem(), nil }},
	}
	for _, sh := range analysis.BenchShapes {
		out = append(out, goldenShape{name: sh.Name, seeds: 30, system: func(seed int64) (*model.System, error) {
			return gen.System(sh.Config(seed))
		}})
	}
	return out
}

// goldenOptions are the option sets every (shape, seed, mode) line
// hashes, in this order: both analyses, each once plain and
// sequential, once verdict-only with a capped iteration on two
// workers.
func goldenOptions() []analysis.Options {
	return []analysis.Options{
		{Workers: 1},
		{Exact: true, Workers: 1},
		{StopAtDeadlineMiss: true, MaxIterations: 32, Workers: 2},
		{Exact: true, StopAtDeadlineMiss: true, MaxIterations: 32, Workers: 2},
	}
}

// goldenModes are the entry points the corpus drives: one static pass,
// the holistic analysis, an incremental re-analysis after a WCET edit
// of one transaction, and an Audsley priority search (whose hash also
// covers the priorities it installs).
var goldenModes = []string{"static", "dynamic", "from", "audsley"}

// hashResult feeds every outcome bit of res into h: per task the
// Worst, Jitter and Offset bits, the critical scenario and job, then
// the iteration count and the verdict.
func hashResult(h hash.Hash, res *analysis.Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, row := range res.Tasks {
		put(uint64(len(row)))
		for _, tr := range row {
			put(math.Float64bits(tr.Worst))
			put(math.Float64bits(tr.Jitter))
			put(math.Float64bits(tr.Offset))
			put(uint64(int64(tr.CriticalInitiator)))
			put(uint64(int64(tr.CriticalJob)))
		}
	}
	put(uint64(res.Iterations))
	if res.Schedulable {
		put(1)
	} else {
		put(0)
	}
}

// goldenEdit returns sys with the WCETs of one transaction scaled by
// 0.75: a one-transaction edit the delta path replays around.
func goldenEdit(sys *model.System, seed int64) *model.System {
	out := sys.Clone()
	tr := &out.Transactions[int(seed)%len(out.Transactions)]
	for j := range tr.Tasks {
		tr.Tasks[j].WCET = math.Max(tr.Tasks[j].BCET, 0.75*tr.Tasks[j].WCET)
	}
	return out
}

// goldenRun hashes one (system, mode) cell over every option set. An
// analysis error (an exact sweep over MaxScenarios) is hashed as its
// message, so a change that starts or stops failing moves the line too.
// Audsley searches run only under the capped option sets, as the
// served search does: uncapped, a probe of an unschedulable candidate
// can run the default 1000 holistic rounds.
func goldenRun(sys *model.System, seed int64, mode string) string {
	h := sha256.New()
	for _, opt := range goldenOptions() {
		if mode == "audsley" && opt.MaxIterations == 0 {
			continue
		}
		var (
			res *analysis.Result
			err error
		)
		switch mode {
		case "static":
			res, err = analysis.AnalyzeStatic(sys, opt)
		case "dynamic":
			res, err = analysis.Analyze(sys, opt)
		case "from":
			eng := analysis.NewEngine(opt)
			var prev *analysis.Result
			if prev, err = eng.Analyze(sys); err == nil {
				res, err = eng.AnalyzeFrom(prev, goldenEdit(sys, seed))
			}
		case "audsley":
			work := sys.Clone()
			res, _, err = sched.Assign(context.Background(), work, sched.PolicyAudsley, sched.AssignOptions{Analysis: opt})
			if err == nil {
				var buf [8]byte
				for i := range work.Transactions {
					for _, tk := range work.Transactions[i].Tasks {
						binary.LittleEndian.PutUint64(buf[:], uint64(int64(tk.Priority)))
						h.Write(buf[:])
					}
				}
			}
		}
		if err != nil {
			fmt.Fprintf(h, "err:%v;", err)
			continue
		}
		hashResult(h, res)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenCorpus checks the analysis outputs against a corpus of
// SHA-256 lines recorded by an earlier commit: every Worst, Jitter and
// Offset bit, the critical scenarios, iteration counts and verdicts of
// the static, holistic, incremental and Audsley entry points, over the
// benchmark's system shapes and four option sets. A kernel rewrite that
// claims bit-identical results must leave every line unchanged.
func TestGoldenCorpus(t *testing.T) {
	for _, sh := range goldenShapes() {
		t.Run(sh.name, func(t *testing.T) {
			var lines []string
			for k := 0; k < sh.seeds; k++ {
				seed := int64(1 + k)
				sys, err := sh.system(seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range goldenModes {
					lines = append(lines, fmt.Sprintf("%d %s %s", seed, mode, goldenRun(sys, seed, mode)))
				}
			}
			path := filepath.Join("testdata", "golden_"+sh.name+".txt")
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var want []string
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				want = append(want, sc.Text())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(want) != len(lines) {
				t.Fatalf("%s: %d lines, corpus has %d", path, len(lines), len(want))
			}
			for i := range lines {
				if lines[i] != want[i] {
					t.Errorf("%s:%d: got %q, want %q", path, i+1, lines[i], want[i])
				}
			}
		})
	}
}
