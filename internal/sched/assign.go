package sched

import (
	"context"
	"fmt"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// Policy selects a priority-assignment policy for Assign.
type Policy string

// The selectable policies, cheapest first: the two closed-form
// monotonic rankings, the HOPA deadline-distribution heuristic, and
// the Audsley-style optimal (per-platform, bottom-up) search.
const (
	PolicyRM      Policy = "rm"
	PolicyDM      Policy = "dm"
	PolicyHOPA    Policy = "hopa"
	PolicyAudsley Policy = "audsley"
)

// Policies lists every selectable policy, in the order the CLI and the
// experiments present them.
func Policies() []Policy {
	return []Policy{PolicyRM, PolicyDM, PolicyHOPA, PolicyAudsley}
}

// AssignOptions tunes Assign.
type AssignOptions struct {
	// Analysis configures the holistic oracle (and the verdict
	// analysis of the closed-form policies).
	Analysis analysis.Options
	// Iterations bounds HOPA's deadline-redistribution rounds; 0
	// selects the HOPA default. Ignored by the other policies.
	Iterations int
	// Service, when non-nil, is the analysis service all oracle
	// traffic routes through; see HOPAOptions.Service and
	// AudsleyOptions.Service. When nil, a private single-shard service
	// serves the one call.
	Service *service.Service
}

// Assign applies one priority-assignment policy to sys, overwriting
// its task priorities in place, and returns the holistic analysis of
// the installed assignment plus whether it is schedulable. The
// closed-form policies (rm, dm) always install their ranking; the
// searches (hopa, audsley) install the best assignment they found even
// when it is not schedulable. All analysis traffic runs through one
// probe session on AssignOptions.Service, so back-to-back Assign calls
// sharing a service share its memo; treat the returned
// result as read-only.
func Assign(ctx context.Context, sys *model.System, policy Policy, opt AssignOptions) (*analysis.Result, bool, error) {
	switch policy {
	case PolicyRM, PolicyDM:
		if err := sys.Validate(); err != nil {
			return nil, false, err
		}
		if policy == PolicyRM {
			RateMonotonic(sys)
		} else {
			DeadlineMonotonic(sys)
		}
		sess := sessionFor(opt.Service)
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("sched: %w", err)
		}
		res, err := sess.AnalyzeOptions(ctx, sys, opt.Analysis)
		if err != nil {
			return nil, false, err
		}
		return res, res.Schedulable, nil
	case PolicyHOPA:
		res, err := HOPAContext(ctx, sys, HOPAOptions{
			Iterations: opt.Iterations,
			Analysis:   opt.Analysis,
			Service:    opt.Service,
		})
		if err != nil {
			return nil, false, err
		}
		return res, res.Schedulable, nil
	case PolicyAudsley:
		return AudsleyContext(ctx, sys, AudsleyOptions{
			Analysis: opt.Analysis,
			Service:  opt.Service,
		})
	default:
		return nil, false, fmt.Errorf("sched: unknown policy %q (want rm, dm, hopa or audsley)", policy)
	}
}
