package experiments

import (
	"context"
	"fmt"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// ChurnReport summarises an AdmissionChurn run: how the analysis
// service absorbed a stream of single-transaction mutations.
type ChurnReport struct {
	// Steps is the number of admission-control events replayed.
	Steps int
	// Admitted counts the events whose mutated system was schedulable.
	Admitted int
	// Stats is the service's counter snapshot after the run: Misses is
	// the number of analyses actually executed, DeltaHits the subset
	// that ran incrementally, RoundsSaved the per-task response
	// computations the delta path skipped.
	Stats service.Stats
}

// AdmissionChurn (ablation A9) replays the workload the incremental
// re-analysis path is built for: admission-control traffic against the
// paper's sensor-fusion example that mutates one transaction at a time
// — admit a background transaction, retune its budget, drop it again,
// with slowly drifting parameters so every event is a genuinely new
// system. All queries go through one probe session of the service, the
// admission controller's shape: identical re-queries hit the verdict
// memo, every other event runs incrementally off the session's previous
// result, and only the first event pays a cold analysis. svc == nil
// constructs a private sequential service; pass an explicit (fresh,
// unshared) one to read its raw Stats afterwards — the report's Stats
// snapshot covers whatever else the service served, so sharing one
// with other workloads mixes their counters in.
func AdmissionChurn(steps int, svc *service.Service) (*ChurnReport, error) {
	if steps <= 0 {
		steps = 30
	}
	if svc == nil {
		svc = service.New(service.Options{Shards: 1, Analysis: analysis.Options{Workers: 1}})
	}
	ctx := context.Background()
	sess := svc.NewSession()

	base := PaperSystem()
	sys := base
	rep := &ChurnReport{Steps: steps}
	for k := 0; k < steps; k++ {
		cycle := k / 3
		switch k % 3 {
		case 0: // admit a background transaction on a sensor node
			sys = base.Clone()
			sys.Transactions = append(sys.Transactions, model.Transaction{
				Name: "background", Period: 60, Deadline: 60,
				Tasks: []model.Task{{
					Name: "bg", WCET: 0.5 + 0.05*float64(cycle), BCET: 0.25,
					Priority: 0, Platform: Pi1 + cycle%2,
				}},
			})
		case 1: // retune the admitted transaction's budget
			sys = sys.Clone()
			tr := &sys.Transactions[len(sys.Transactions)-1]
			tr.Tasks[0].WCET += 0.1
		case 2: // drop it again
			sys = sys.Clone()
			sys.Transactions = sys.Transactions[:len(sys.Transactions)-1]
		}
		res, err := sess.Analyze(ctx, sys)
		if err != nil {
			return nil, fmt.Errorf("admission churn step %d: %w", k, err)
		}
		if res.Schedulable {
			rep.Admitted++
		}
	}
	rep.Stats = svc.Stats()
	return rep, nil
}

// RenderAdmissionChurn formats ablation A9.
func RenderAdmissionChurn(r *ChurnReport) string {
	st := r.Stats
	header := []string{"metric", "value"}
	rows := [][]string{
		{"admission events", fmt.Sprintf("%d", r.Steps)},
		{"admitted (schedulable)", fmt.Sprintf("%d", r.Admitted)},
		{"queries", fmt.Sprintf("%d", st.Queries)},
		{"memo hits", fmt.Sprintf("%d", st.Hits)},
		{"analyses executed", fmt.Sprintf("%d", st.Misses)},
		{"incremental (delta) analyses", fmt.Sprintf("%d", st.DeltaHits)},
		{"task-rounds saved by replay", fmt.Sprintf("%d", st.RoundsSaved)},
	}
	return renderTable("Ablation A9: admission-control churn absorbed by the delta path (paper example)", header, rows)
}
