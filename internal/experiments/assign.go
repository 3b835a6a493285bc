package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"hsched/internal/analysis"
	"hsched/internal/batch"
	"hsched/internal/gen"
	"hsched/internal/sched"
	"hsched/internal/service"
)

// PolicyAcceptancePoint is one utilisation point of the priority-
// assignment policy sweep.
type PolicyAcceptancePoint struct {
	// Utilization is the per-platform demand target of the generated
	// systems.
	Utilization float64
	// Systems is the number of random systems drawn.
	Systems int
	// RM, DM, HOPA and Audsley are the fractions of systems each
	// policy renders schedulable (the same system, priorities
	// reassigned per policy).
	RM, DM, HOPA, Audsley float64
}

// PolicyAcceptance (ablation A10) draws random constrained-deadline
// task sets with release jitter on one shared platform, reassigns each
// set's priorities under every policy of package sched, and reports
// the fraction each policy renders schedulable — the acceptance-ratio
// counterpart of ablation A8, with the assignment policy instead of
// the analysis variant on the x-axis. The setting is the classical
// one where the policies genuinely separate: independent tasks with
// deadline ≤ period make DM beat RM, and release jitter breaks DM's
// optimality while Audsley's bottom-up search remains optimal (a
// task's response depends only on the set of tasks above it). The
// searches (HOPA, Audsley) probe the holistic oracle through probe
// sessions on one shared analysis service, so their chains of
// one-priority-apart probes ride the memo and the incremental path;
// svc == nil constructs a private service sized to the worker count,
// pass an explicit one to read its Stats afterwards (the CLI's -cache
// flag does).
//
// The oracle is deliberately bounded (MaxInner, MaxIterations): an
// unschedulable probe near the divergence boundary otherwise grinds
// through millions of fixed-point steps just to report a miss. The
// bound is identical for every policy, so the comparison stays fair;
// a probe that exhausts it counts as unschedulable.
func PolicyAcceptance(utils []float64, perPoint int, seed int64, workers int, svc *service.Service) ([]PolicyAcceptancePoint, error) {
	if svc == nil {
		svc = service.New(service.Options{Shards: SweepShards(workers)})
	}
	// One option set for every policy and both searches: verdicts and
	// probes then share memo entries across policies (an Audsley probe
	// can be answered by a HOPA round's resident result). No
	// StopAtDeadlineMiss: the searches would clear it on their probes
	// anyway (sched.AudsleyOptions.Analysis, sched.HOPAOptions.Analysis),
	// so it could only cut the closed-form policies' one verdict short.
	opt := analysis.Options{Workers: 1, MaxInner: 50_000, MaxIterations: 60}
	ctx := context.Background()
	type verdicts struct{ rm, dm, hopa, audsley bool }
	var out []PolicyAcceptancePoint
	for _, u := range utils {
		u := u
		vs, err := batch.Map(perPoint, batch.Options{Workers: workers}, func(k int) (verdicts, error) {
			sys, err := gen.System(gen.Config{
				Seed:      seed + int64(k) + int64(u*1e6),
				Platforms: 1, Transactions: 5, ChainLen: 1,
				PeriodMin: 20, PeriodMax: 400,
				Utilization: u,
				AlphaMin:    0.5, AlphaMax: 0.9,
			})
			if err != nil {
				return verdicts{}, err
			}
			// Constrained deadlines and release jitter, deterministic
			// per system: uniform deadline factors would collapse DM
			// onto RM, and without jitter DM would tie Audsley.
			jrng := rand.New(rand.NewSource(seed + 7919*int64(k) + int64(u*1e6)))
			for i := range sys.Transactions {
				tr := &sys.Transactions[i]
				tr.Deadline = tr.Period * (0.6 + 0.4*jrng.Float64())
				tr.Tasks[0].Jitter = tr.Period * 0.35 * jrng.Float64()
			}
			var v verdicts
			for _, p := range sched.Policies() {
				c := sys.Clone()
				_, ok, err := sched.Assign(ctx, c, p, sched.AssignOptions{Analysis: opt, Service: svc})
				if err != nil {
					return verdicts{}, fmt.Errorf("policy %s, seed %d at U=%v: %w", p, seed+int64(k)+int64(u*1e6), u, err)
				}
				switch p {
				case sched.PolicyRM:
					v.rm = ok
				case sched.PolicyDM:
					v.dm = ok
				case sched.PolicyHOPA:
					v.hopa = ok
				case sched.PolicyAudsley:
					v.audsley = ok
				}
			}
			return v, nil
		})
		if err != nil {
			return nil, err
		}
		pt := PolicyAcceptancePoint{Utilization: u, Systems: perPoint}
		for _, v := range vs {
			if v.rm {
				pt.RM++
			}
			if v.dm {
				pt.DM++
			}
			if v.hopa {
				pt.HOPA++
			}
			if v.audsley {
				pt.Audsley++
			}
		}
		pt.RM /= float64(perPoint)
		pt.DM /= float64(perPoint)
		pt.HOPA /= float64(perPoint)
		pt.Audsley /= float64(perPoint)
		out = append(out, pt)
	}
	return out, nil
}

// RenderPolicyAcceptance formats ablation A10.
func RenderPolicyAcceptance(pts []PolicyAcceptancePoint) string {
	header := []string{"utilisation", "systems", "rm", "dm", "hopa", "audsley"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Utilization),
			fmt.Sprintf("%d", p.Systems),
			fmt.Sprintf("%.2f", p.RM),
			fmt.Sprintf("%.2f", p.DM),
			fmt.Sprintf("%.2f", p.HOPA),
			fmt.Sprintf("%.2f", p.Audsley),
		})
	}
	return renderTable("Ablation A10: acceptance ratio by priority-assignment policy (random systems)", header, rows)
}

// PolicyAcceptanceCSV writes ablation A10 as plot-ready CSV.
func PolicyAcceptanceCSV(w io.Writer, pts []PolicyAcceptancePoint) error {
	rows := make([][]float64, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []float64{p.Utilization, float64(p.Systems), p.RM, p.DM, p.HOPA, p.Audsley})
	}
	return WriteCSV(w, []string{"utilisation", "systems", "rm", "dm", "hopa", "audsley"}, rows)
}
