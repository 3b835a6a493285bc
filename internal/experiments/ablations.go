package experiments

import (
	"fmt"
	"math"
	"strings"

	"hsched/internal/analysis"
	"hsched/internal/component"
	"hsched/internal/design"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/network"
	"hsched/internal/platform"
	"hsched/internal/server"
	"hsched/internal/sim"
)

// smallRandomConfig yields systems small enough for the exact analysis
// yet rich enough to have multi-candidate scenarios.
func smallRandomConfig(seed int64) gen.Config {
	return gen.Config{
		Seed:         seed,
		Platforms:    2,
		Transactions: 3,
		ChainLen:     3,
		PeriodMin:    20, PeriodMax: 200,
		Utilization: 0.45,
		AlphaMin:    0.35, AlphaMax: 0.8,
	}
}

// ExactVsApproxRow compares both analyses on one random system.
type ExactVsApproxRow struct {
	Seed                 int64
	ExactScenarios       int // largest per-task scenario count (Eq. 12)
	ApproxScenarios      int // largest per-task count of Section 3.1.2
	MaxRatio             float64
	ExactEnd, ApproxEnd  float64 // end-to-end response of Γ1
	BothSchedulableAgree bool
}

// ExactVsApprox (ablation A1) quantifies what the approximation of
// Section 3.1.2 costs: for a batch of random systems it reports the
// scenario-count blowup of the exact analysis (Eq. 12) and the
// worst-case response inflation of the approximate analysis. The
// approximation must never be below the exact analysis (it upper
// bounds it).
func ExactVsApprox(seeds []int64) ([]ExactVsApproxRow, error) {
	var out []ExactVsApproxRow
	// The generated systems all share one shape, so the two engines
	// keep their buffers warm across the whole sweep.
	exactEng := analysis.NewEngine(analysis.Options{Exact: true})
	approxEng := analysis.NewEngine(analysis.Options{})
	for _, seed := range seeds {
		// A single platform with longer chains maximises the number of
		// same-platform interferers per transaction, which is exactly
		// where the scenario product of Eq. 12 grows.
		sys, err := gen.System(gen.Config{
			Seed:         seed,
			Platforms:    1,
			Transactions: 3,
			ChainLen:     4,
			PeriodMin:    20, PeriodMax: 200,
			Utilization: 0.5,
			AlphaMin:    0.5, AlphaMax: 0.9,
			RandomPriorities: true,
		})
		if err != nil {
			return nil, err
		}
		exact, err := exactEng.Analyze(sys)
		if err != nil {
			return nil, err
		}
		approx, err := approxEng.Analyze(sys)
		if err != nil {
			return nil, err
		}
		row := ExactVsApproxRow{Seed: seed, MaxRatio: 1}
		for i := range sys.Transactions {
			for j := range sys.Transactions[i].Tasks {
				ex, ap := analysis.ScenarioCount(sys, i, j)
				if ex > row.ExactScenarios {
					row.ExactScenarios = ex
				}
				if ap > row.ApproxScenarios {
					row.ApproxScenarios = ap
				}
				re, ra := exact.Tasks[i][j].Worst, approx.Tasks[i][j].Worst
				if math.IsInf(re, 1) || math.IsInf(ra, 1) {
					continue
				}
				if ra < re-1e-6 {
					return nil, fmt.Errorf("approximate analysis below exact on seed %d task (%d,%d): %v < %v", seed, i, j, ra, re)
				}
				if re > 0 && ra/re > row.MaxRatio {
					row.MaxRatio = ra / re
				}
			}
		}
		row.ExactEnd = exact.TransactionResponse(0)
		row.ApproxEnd = approx.TransactionResponse(0)
		row.BothSchedulableAgree = exact.Schedulable == approx.Schedulable
		out = append(out, row)
	}
	return out, nil
}

// RenderExactVsApprox formats ablation A1.
func RenderExactVsApprox(rows []ExactVsApproxRow) string {
	header := []string{"seed", "exact scenarios", "approx scenarios", "max R ratio", "R1 exact", "R1 approx", "verdicts agree"}
	var rs [][]string
	for _, r := range rows {
		rs = append(rs, []string{
			fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%d", r.ExactScenarios), fmt.Sprintf("%d", r.ApproxScenarios),
			fmt.Sprintf("%.4f", r.MaxRatio),
			fmt.Sprintf("%.3f", r.ExactEnd), fmt.Sprintf("%.3f", r.ApproxEnd),
			fmt.Sprintf("%v", r.BothSchedulableAgree),
		})
	}
	return renderTable("Ablation A1: exact (Sec. 3.1.1) vs approximate (Sec. 3.1.2) analysis", header, rs)
}

// PessimismRow is one α point of ablation A2.
type PessimismRow struct {
	Alpha     float64
	Analyzed  float64 // holistic bound using the linear (α, Δ, β) model
	Simulated float64 // worst observed response on the concrete polling server
	Ratio     float64
}

// Pessimism (ablation A2) measures the cost of the linear platform
// model the paper acknowledges at the end of Section 2.3: a single
// periodic task on a polling server is analysed with the server's
// (α, Δ, β) triple and simulated on the concrete server across many
// alignments; the gap between bound and worst observation is the
// pessimism of the linearisation (plus the residual analysis slack).
func Pessimism(alphas []float64) ([]PessimismRow, error) {
	const serverPeriod = 2.0
	var out []PessimismRow
	// Only the platform triple changes between α points — the ideal
	// case for engine reuse.
	eng := analysis.NewEngine(analysis.Options{})
	for _, a := range alphas {
		fam := design.PollingFamily(serverPeriod)
		sys := &model.System{
			Platforms: []platform.Params{fam(a)},
			Transactions: []model.Transaction{
				{Name: "G", Period: 40, Deadline: 1e9,
					Tasks: []model.Task{{Name: "t", WCET: 2, BCET: 2, Priority: 1}}},
			},
		}
		res, err := eng.Analyze(sys)
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for _, phase := range []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75} {
			srv := server.Polling{Q: a * serverPeriod, P: serverPeriod, Phase: phase}
			r, err := sim.Run(sys, []server.Server{srv}, sim.Config{Horizon: 400, Step: 0.002, Mode: sim.WorstCase})
			if err != nil {
				return nil, err
			}
			if m := r.MaxEndToEnd(0); m > worst {
				worst = m
			}
		}
		bound := res.TransactionResponse(0)
		out = append(out, PessimismRow{Alpha: a, Analyzed: bound, Simulated: worst, Ratio: bound / worst})
	}
	return out, nil
}

// RenderPessimism formats ablation A2.
func RenderPessimism(rows []PessimismRow) string {
	header := []string{"alpha", "analyzed R", "simulated worst", "bound/observed"}
	var rs [][]string
	for _, r := range rows {
		rs = append(rs, []string{
			fmt.Sprintf("%.2f", r.Alpha),
			fmt.Sprintf("%.3f", r.Analyzed), fmt.Sprintf("%.3f", r.Simulated),
			fmt.Sprintf("%.3f", r.Ratio),
		})
	}
	return renderTable("Ablation A2: pessimism of the linear (alpha, Delta, beta) model vs a concrete polling server", header, rs)
}

// SimVsAnalysisRow is one random system of ablation A3.
type SimVsAnalysisRow struct {
	Seed        int64
	Schedulable bool
	MaxRatio    float64 // max over transactions of simulated/analysed
	Violations  int     // simulated responses above the analysed bound
}

// SimVsAnalysis (ablation A3) is the soundness sweep: random systems
// are analysed and then simulated on polling servers realising exactly
// the analysed platforms, across alignments and execution modes; no
// simulated response may exceed its analysed bound.
func SimVsAnalysis(seeds []int64) ([]SimVsAnalysisRow, error) {
	var out []SimVsAnalysisRow
	eng := analysis.NewEngine(analysis.Options{})
	for _, seed := range seeds {
		sys, err := gen.System(smallRandomConfig(seed))
		if err != nil {
			return nil, err
		}
		res, err := eng.Analyze(sys)
		if err != nil {
			return nil, err
		}
		row := SimVsAnalysisRow{Seed: seed, Schedulable: res.Schedulable}
		if res.Schedulable {
			servers := make([]server.Server, len(sys.Platforms))
			for _, phase := range []float64{0, 0.37, 0.91} {
				for m, p := range sys.Platforms {
					srv, err := server.ForPlatform(p, phase*float64(m+1))
					if err != nil {
						return nil, err
					}
					servers[m] = srv
				}
				for _, mode := range []sim.ExecMode{sim.WorstCase, sim.RandomCase} {
					r, err := sim.Run(sys, servers, sim.Config{Horizon: 3000, Step: 0.01, Mode: mode, Seed: seed})
					if err != nil {
						return nil, err
					}
					for i := range sys.Transactions {
						bound := res.TransactionResponse(i)
						got := r.MaxEndToEnd(i)
						if bound > 0 && got/bound > row.MaxRatio {
							row.MaxRatio = got / bound
						}
						if got > bound+0.1 {
							row.Violations++
						}
					}
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderSimVsAnalysis formats ablation A3.
func RenderSimVsAnalysis(rows []SimVsAnalysisRow) string {
	header := []string{"seed", "schedulable", "max sim/analysis", "violations"}
	var rs [][]string
	for _, r := range rows {
		rs = append(rs, []string{
			fmt.Sprintf("%d", r.Seed), fmt.Sprintf("%v", r.Schedulable),
			fmt.Sprintf("%.3f", r.MaxRatio), fmt.Sprintf("%d", r.Violations),
		})
	}
	return renderTable("Ablation A3: simulated responses never exceed analysed bounds", header, rs)
}

// DesignSearch (ablation A5) runs the future-work optimisation on the
// paper's example: minimal per-platform bandwidths, within polling
// server families matching the paper's platform delays, that keep the
// system schedulable. The paper provisions Σα = 1.0 (0.4+0.4+0.2).
func DesignSearch() (string, *design.Result, error) {
	sys := PaperSystem()
	// Families with the periods implied by the paper's delays:
	// P = Δ/(2(1−α)) at the paper's α.
	fams := []design.Family{
		design.PollingFamily(1 / (2 * (1 - 0.4))), // Π1: P = 0.8333
		design.PollingFamily(1 / (2 * (1 - 0.4))), // Π2
		design.PollingFamily(2 / (2 * (1 - 0.2))), // Π3: P = 1.25
	}
	res, err := design.Minimize(sys, fams, design.Options{})
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("Ablation A5: platform-parameter optimisation (paper Sec. 5 future work)\n")
	for m, a := range res.Alphas {
		fmt.Fprintf(&b, "  Pi%d: alpha = %.3f (paper provisioned %g) -> %v\n",
			m+1, a, PaperPlatforms()[m].Alpha, res.Platforms[m])
	}
	fmt.Fprintf(&b, "  total bandwidth = %.3f (paper: 1.0); schedulable: %v; R(Gamma1) = %.2f\n",
		res.TotalBandwidth, res.Analysis.Schedulable, res.Analysis.TransactionResponse(0))
	return b.String(), res, nil
}

// NetworkedAssembly returns the paper assembly extended with a CAN-like
// bus (ablation A6): a fourth platform models the network, and every
// cross-platform RPC is bracketed by request/reply messages.
func NetworkedAssembly() (*component.Assembly, network.Bus) {
	bus := network.Bus{Name: "bus", BitsPerUnit: 1000, MaxFrameBits: 135}
	asm := PaperAssembly()
	share, _ := bus.Shared(0.5, 1) // synchronous window: half the bus, 1 ms cycle
	asm.Platforms = append(asm.Platforms, share)
	asm.Messages = &component.MessageModel{
		Network:     len(asm.Platforms) - 1,
		RequestWCET: bus.TransmissionTime(135), RequestBCET: bus.TransmissionTime(64),
		ReplyWCET: bus.TransmissionTime(135), ReplyBCET: bus.TransmissionTime(64),
		Priority: 5,
	}
	return asm, bus
}

// NetworkExperiment (ablation A6) analyses the example with RPC
// messages on a shared bus, reporting the end-to-end inflation caused
// by modelling the network as an abstract platform.
func NetworkExperiment() (string, error) {
	base, err := PaperAssembly().Transactions()
	if err != nil {
		return "", err
	}
	baseRes, err := analysis.Analyze(base, analysis.Options{})
	if err != nil {
		return "", err
	}
	asm, bus := NetworkedAssembly()
	sys, err := asm.Transactions()
	if err != nil {
		return "", err
	}
	if err := network.ApplyBlocking(sys, asm.Messages.Network, bus); err != nil {
		return "", err
	}
	res, err := analysis.Analyze(sys, analysis.Options{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Ablation A6: RPC messages on a shared bus (Sec. 2.2.1)\n")
	fmt.Fprintf(&b, "  bus: %g bits/unit, max frame %g bits, window share 50%% of a 1-unit cycle\n",
		bus.BitsPerUnit, bus.MaxFrameBits)
	for i := range sys.Transactions {
		fmt.Fprintf(&b, "  %-22s R without messages = %-8.3f R with messages = %-8.3f (D=%g)\n",
			sys.Transactions[i].Name, baseRes.TransactionResponse(i), res.TransactionResponse(i),
			sys.Transactions[i].Deadline)
	}
	fmt.Fprintf(&b, "  schedulable with messages: %v\n", res.Schedulable)
	return b.String(), nil
}
