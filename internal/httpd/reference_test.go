package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/spec"
)

// The encoding/json reference of the JSON codec (jsoncodec.go): the
// decode and encode the hot routes ran before it, kept as the oracle
// of its differential tests.

// referenceAnalyzeJSON decodes an analyze body the reference way:
// json.Unmarshal into AnalyzeRequest, the bare-spec fallback as a
// second json.Unmarshal into spec.File, then ToSystem or the edit.
func referenceAnalyzeJSON(body []byte, scoped bool, base *model.System) (*model.System, OptionsSpec, error) {
	var req AnalyzeRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, OptionsSpec{}, fmt.Errorf("%w: decoding request: %w", spec.ErrInvalid, err)
		}
	}
	if !scoped && req.System == nil && len(body) > 0 {
		var f spec.File
		if json.Unmarshal(body, &f) == nil && len(f.Transactions) > 0 {
			req.System = &f
		}
	}
	var (
		sys *model.System
		err error
	)
	switch {
	case req.Edit != nil && !scoped:
		err = fmt.Errorf("%w: edit requires a session-scoped analyze", spec.ErrInvalid)
	case req.System != nil && req.Edit != nil:
		err = fmt.Errorf("%w: request has both system and edit", spec.ErrInvalid)
	case req.System != nil:
		sys, err = req.System.ToSystem()
	case req.Edit == nil:
		err = fmt.Errorf("%w: request has no system or edit", spec.ErrInvalid)
	case base == nil:
		err = fmt.Errorf("%w: edit against a session with no accepted system yet", spec.ErrInvalid)
	default:
		sys, err = req.Edit.apply(base)
	}
	if err != nil {
		return nil, OptionsSpec{}, err
	}
	return sys, req.Options, nil
}

// referenceAssignJSON decodes an assign body the reference way and
// converts its system.
func referenceAssignJSON(body []byte) (*model.System, *AssignRequest, error) {
	var req AssignRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, nil, fmt.Errorf("%w: decoding request: %w", spec.ErrInvalid, err)
		}
	}
	if req.System == nil {
		return nil, &req, fmt.Errorf("%w: request has no system", spec.ErrInvalid)
	}
	sys, err := req.System.ToSystem()
	return sys, &req, err
}

// referenceJSON is what writeJSON sends for v: json.Encoder's bytes
// with HTML escaping off, trailing newline included.
func referenceJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// referenceAssignResponse is the reference AssignResponse of res, with
// the priorities installed in sys.
func referenceAssignResponse(res *analysis.Result, sys *model.System, bounds bool, elapsedMS float64, policy string) *AssignResponse {
	resp := &AssignResponse{
		AnalyzeResponse: *buildAnalyzeResponse(res, bounds, elapsedMS),
		Policy:          policy,
	}
	for i := range sys.Transactions {
		prio := make([]int, len(sys.Transactions[i].Tasks))
		for j := range prio {
			prio[j] = sys.Transactions[i].Tasks[j].Priority
		}
		resp.Priorities = append(resp.Priorities, prio)
	}
	return resp
}

// apply is the reference edit: EditSpec applied the way the server
// applied it before its JSON codec, through spec.TransactionSpec's
// ToTransaction. It returns a validated copy of base with the edit
// applied; every error wraps spec.ErrInvalid and names the offending
// element.
func (e *EditSpec) apply(base *model.System) (*model.System, error) {
	sys := base.Clone()
	for _, pe := range e.Platforms {
		if pe.Index < 1 || pe.Index > len(sys.Platforms) {
			return nil, fmt.Errorf("%w: platform edit: index %d outside [1, %d]", spec.ErrInvalid, pe.Index, len(sys.Platforms))
		}
		p := &sys.Platforms[pe.Index-1]
		p.Alpha, p.Delta, p.Beta = pe.Alpha, pe.Delta, pe.Beta
	}
	for _, ts := range e.Set {
		if ts.Index < 1 || ts.Index > len(sys.Transactions) {
			return nil, fmt.Errorf("%w: set: index %d outside [1, %d]", spec.ErrInvalid, ts.Index, len(sys.Transactions))
		}
		tr, err := ts.Transaction.ToTransaction(len(sys.Platforms))
		if err != nil {
			return nil, fmt.Errorf("set: transaction %d: %w", ts.Index, err)
		}
		sys.Transactions[ts.Index-1] = tr
	}
	if len(e.Remove) > 0 {
		idx := append([]int(nil), e.Remove...)
		sort.Sort(sort.Reverse(sort.IntSlice(idx)))
		last := 0
		for _, i := range idx {
			if i < 1 || i > len(base.Transactions) {
				return nil, fmt.Errorf("%w: remove: index %d outside [1, %d]", spec.ErrInvalid, i, len(base.Transactions))
			}
			if i == last {
				return nil, fmt.Errorf("%w: remove: index %d repeated", spec.ErrInvalid, i)
			}
			last = i
			sys.Transactions = append(sys.Transactions[:i-1], sys.Transactions[i:]...)
		}
	}
	for k := range e.Add {
		tr, err := e.Add[k].ToTransaction(len(sys.Platforms))
		if err != nil {
			return nil, fmt.Errorf("add: transaction %d: %w", k+1, err)
		}
		sys.Transactions = append(sys.Transactions, tr)
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("%w: edited system: %w", spec.ErrInvalid, err)
	}
	return sys, nil
}

// buildAnalyzeResponse is the reference response: the AnalyzeResponse
// value whose json.Encoder bytes the appending encoder must reproduce,
// terse by default, with per-task bounds when asked.
func buildAnalyzeResponse(res *analysis.Result, bounds bool, elapsedMS float64) *AnalyzeResponse {
	resp := &AnalyzeResponse{
		Schedulable:     res.Schedulable,
		Converged:       res.Converged,
		Stopped:         res.StoppedAtGoal,
		Iterations:      res.Iterations,
		ScenariosPruned: res.ScenariosPruned,
		SubtreesPruned:  res.SubtreesPruned,
		ElapsedMS:       elapsedMS,
	}
	if res.Delta != nil {
		resp.Delta = &DeltaStats{
			CleanTasks:      res.Delta.CleanTasks,
			DirtyTasks:      res.Delta.DirtyTasks,
			ReplayedRounds:  res.Delta.ReplayedRounds,
			TaskRoundsSaved: res.Delta.TaskRoundsSaved,
		}
	}
	for i := range res.Tasks {
		tr := &res.System.Transactions[i]
		endToEnd := res.Tasks[i][len(res.Tasks[i])-1].Worst
		tv := TransactionVerdict{
			Name:        tr.Name,
			Deadline:    tr.Deadline,
			Response:    fin(endToEnd),
			Schedulable: res.MeetsDeadline(i),
		}
		if bounds {
			for j, tb := range res.Tasks[i] {
				tv.Tasks = append(tv.Tasks, TaskBounds{
					Name:     res.System.TaskName(i, j),
					Platform: tr.Tasks[j].Platform + 1,
					Offset:   fin(tb.Offset),
					Jitter:   fin(tb.Jitter),
					Best:     fin(tb.Best),
					Worst:    fin(tb.Worst),
				})
			}
		}
		resp.Transactions = append(resp.Transactions, tv)
	}
	return resp
}
