package analysis_test

import (
	"math"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
)

const tol = 1e-6

func approxEq(a, b float64) bool { return math.Abs(a-b) <= tol }

// TestTable1BestStarts locks the φmin column of Table 1: the derived
// best-case start times of the tasks of Γ1 are 0, 3, 4 and 5.
func TestTable1BestStarts(t *testing.T) {
	sys := experiments.PaperSystem()
	starts, _ := analysis.BestBounds(sys, false)
	want := []float64{0, 3, 4, 5}
	for j, w := range want {
		if !approxEq(starts[0][j], w) {
			t.Errorf("φmin of τ1,%d = %v, want %v", j+1, starts[0][j], w)
		}
	}
	for i := 1; i <= 3; i++ {
		if !approxEq(starts[i][0], 0) {
			t.Errorf("φmin of τ%d,1 = %v, want 0", i+1, starts[i][0])
		}
	}
}

// iterationCell is one (J, R) entry of Table 3.
type iterationCell struct{ j, r float64 }

// TestTable3HolisticIteration locks the holistic iteration trace of
// transaction Γ1 against Table 3 of the paper.
//
// Reproduction note (also recorded in EXPERIMENTS.md): every jitter
// column and every response-time cell up to iteration 2 matches the
// paper exactly. For τ1,4 at iterations 3-4 the paper prints R = 39,
// but the paper's own equations yield R = 31: at J1,4 = 19 no task on
// Π3 can interfere with τ1,4 (it has the highest priority there), so
// Eq. 16 gives w = Δ + C/α = 7 and R = φ + J + w = 5 + 19 + 7 = 31.
// 31 is also the semantically largest possible bound (τ1,4 starts no
// later than R1,3 = 24 and needs at most Δ + C/α = 7). The
// schedulability verdict (R ≤ D = 50) is unchanged.
func TestTable3HolisticIteration(t *testing.T) {
	sys := experiments.PaperSystem()

	var trace [][]iterationCell // trace[iter][j]
	opt := analysis.Options{
		Recorder: func(iter int, snap *analysis.Result) {
			row := make([]iterationCell, len(snap.Tasks[0]))
			for j, tr := range snap.Tasks[0] {
				row[j] = iterationCell{j: tr.Jitter, r: tr.Worst}
			}
			trace = append(trace, row)
		},
	}
	res, err := analysis.Analyze(sys, opt)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !res.Converged {
		t.Fatalf("holistic iteration did not converge in %d rounds", res.Iterations)
	}
	if !res.Schedulable {
		t.Errorf("system should be schedulable (paper: R1,4 = 39 ≤ 50)")
	}

	want := [][]iterationCell{
		{{0, 12}, {0, 9}, {0, 10}, {0, 12}},    // iteration 0
		{{0, 12}, {9, 18}, {5, 15}, {5, 17}},   // iteration 1
		{{0, 12}, {9, 18}, {14, 24}, {10, 22}}, // iteration 2
		{{0, 12}, {9, 18}, {14, 24}, {19, 31}}, // iteration 3 (paper prints R=39; see note)
		{{0, 12}, {9, 18}, {14, 24}, {19, 31}}, // iteration 4 (fixed point)
	}
	if len(trace) != len(want) {
		t.Fatalf("holistic executed %d iterations, want %d", len(trace), len(want))
	}
	for it, row := range want {
		for j, cell := range row {
			got := trace[it][j]
			if !approxEq(got.j, cell.j) {
				t.Errorf("iteration %d: J1,%d = %v, want %v", it, j+1, got.j, cell.j)
			}
			if !approxEq(got.r, cell.r) {
				t.Errorf("iteration %d: R1,%d = %v, want %v", it, j+1, got.r, cell.r)
			}
		}
	}

	// End-to-end responses of the single-task transactions.
	if r := res.TransactionResponse(0); !approxEq(r, 31) {
		t.Errorf("R(Γ1) = %v, want 31", r)
	}
	for i, tr := range res.System.Transactions[1:] {
		if r := res.TransactionResponse(i + 1); r > tr.Deadline+tol {
			t.Errorf("R(%s) = %v exceeds deadline %v", tr.Name, r, tr.Deadline)
		}
	}
}

// TestPaperIteration0ByHand locks the four hand-derived response times
// of iteration 0 (J = 0, φ = φmin) individually via the static
// analysis, pinning each intermediate quantity of Section 3.1:
//
//	τ1,1: interfered by τ1,4 (ϕ = 5 on Π3): w = 2+5+5 = 12, R = 12
//	τ1,2: interfered by τ2,1 on Π1: w = 1+2.5+2.5 = 6, R = 6+3 = 9
//	τ1,3: interfered by τ3,1 on Π2: w = 6, R = 6+4 = 10
//	τ1,4: highest priority on Π3: w = 2+5 = 7, R = 7+5 = 12
func TestPaperIteration0ByHand(t *testing.T) {
	sys := experiments.PaperSystem()
	starts, _ := analysis.BestBounds(sys, false)
	for j := 1; j < 4; j++ {
		sys.Transactions[0].Tasks[j].Offset = starts[0][j]
	}
	res, err := analysis.AnalyzeStatic(sys, analysis.Options{})
	if err != nil {
		t.Fatalf("AnalyzeStatic: %v", err)
	}
	want := []float64{12, 9, 10, 12}
	for j, w := range want {
		if got := res.Tasks[0][j].Worst; !approxEq(got, w) {
			t.Errorf("static R1,%d = %v, want %v", j+1, got, w)
		}
	}
}

// TestMeetsDeadlineGuardBand: the per-transaction test and the system
// verdict share one guard band, the analysis's ε. Γ1's response of 31
// against a deadline of 31 − 5e-10 passes under the default ε = 1e-9
// and fails under ε = 1e-12, in both the verdict and MeetsDeadline.
func TestMeetsDeadlineGuardBand(t *testing.T) {
	sys := experiments.PaperSystem()
	sys.Transactions[0].Deadline = 31 - 5e-10
	for _, c := range []struct {
		eps  float64
		want bool
	}{{0, true}, {1e-12, false}} {
		res, err := analysis.NewEngine(analysis.Options{Epsilon: c.eps}).Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		if r := res.TransactionResponse(0); r != 31 {
			t.Fatalf("Γ1 response %v, want 31", r)
		}
		if res.Schedulable != c.want || res.MeetsDeadline(0) != c.want {
			t.Errorf("ε=%g: Schedulable %v, MeetsDeadline(0) %v, want both %v",
				c.eps, res.Schedulable, res.MeetsDeadline(0), c.want)
		}
	}
}
