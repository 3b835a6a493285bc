package httpd

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"unicode/utf8"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// The JSON codec of the hot routes. Request bodies of /v1/analyze (both
// forms) and /v1/assign are read in one pass by spec.Decoder, straight
// into a model system and an OptionsSpec, with the acceptance rules of
// json.Unmarshal into AnalyzeRequest and AssignRequest; the 200 bodies
// of those routes are appended into a pooled buffer, byte for byte what
// json.Encoder (SetEscapeHTML(false)) writes for AnalyzeResponse and
// AssignResponse. The request and response types stay the public,
// encoding/json-tagged description of both shapes.

// JSON field names of the request types.
var (
	analyzeFields  = []string{"system", "edit", "options"}
	assignFields   = []string{"system", "policy", "iterations", "options"}
	optionsFields  = []string{"exact", "static", "tight_best_case", "stop_at_deadline_miss", "workers", "max_iterations", "max_scenarios", "deadline_ms", "bounds"}
	editFields     = []string{"platforms", "set", "remove", "add"}
	platEditFields = []string{"index", "alpha", "delta", "beta"}
	setFields      = []string{"index", "transaction"}
)

// draftRef is a *spec.File field of a request, decoded in place: null
// drops what an earlier value decoded, and a repeated object merges
// into it.
type draftRef struct {
	set   bool
	draft spec.Draft
}

func (r *draftRef) decode(d *spec.Decoder) error {
	null, err := d.Draft(&r.draft)
	if null {
		*r = draftRef{}
	} else {
		r.set = true
	}
	return err
}

// decodeAnalyzeJSON decodes a JSON analyze body into the validated
// system it names and its options block: a full spec (or, outside a
// session, a bare spec document whose top level is the system), or,
// with scoped set, an edit against base, the session's last accepted
// system (nil before its first). Every error wraps spec.ErrInvalid.
func decodeAnalyzeJSON(body []byte, scoped bool, base *model.System) (*model.System, OptionsSpec, error) {
	var (
		system draftRef
		bare   spec.Draft
		ed     struct {
			set  bool
			edit edit
		}
		opts OptionsSpec
	)
	if len(body) > 0 {
		d := spec.NewDecoder(body)
		bareOK := true
		_, err := d.Object(func(key []byte) error {
			switch spec.Field(key, analyzeFields) {
			case "system":
				return system.decode(&d)
			case "edit":
				null, err := ed.edit.decode(&d)
				if null {
					ed.set, ed.edit = false, edit{}
				} else {
					ed.set = true
				}
				return err
			case "options":
				return opts.decode(&d)
			}
			if scoped {
				return d.Skip()
			}
			// curl friendliness: a bare spec document's members sit
			// beside the request's own. json.Unmarshal would read them
			// in a second pass into a spec.File, whose failure voids
			// only that reading.
			mismatch, err := d.Isolate(func() error {
				if ok, err := d.DraftMember(&bare, key); ok || err != nil {
					return err
				}
				return d.Skip()
			})
			bareOK = bareOK && mismatch == nil
			return err
		})
		if err == nil {
			err = d.End()
		}
		if err != nil {
			return nil, OptionsSpec{}, fmt.Errorf("%w: decoding request: %w", spec.ErrInvalid, err)
		}
		if !system.set && bareOK && bare.HasTransactions() {
			system = draftRef{set: true, draft: bare}
		}
	}
	var (
		sys *model.System
		err error
	)
	switch {
	case ed.set && !scoped:
		err = fmt.Errorf("%w: edit requires a session-scoped analyze", spec.ErrInvalid)
	case system.set && ed.set:
		err = fmt.Errorf("%w: request has both system and edit", spec.ErrInvalid)
	case system.set:
		sys, err = system.draft.System()
	case !ed.set:
		err = fmt.Errorf("%w: request has no system or edit", spec.ErrInvalid)
	case base == nil:
		err = fmt.Errorf("%w: edit against a session with no accepted system yet", spec.ErrInvalid)
	default:
		sys, err = ed.edit.apply(base)
	}
	if err != nil {
		return nil, OptionsSpec{}, err
	}
	return sys, opts, nil
}

// assignBody is a decoded /v1/assign body.
type assignBody struct {
	system     draftRef
	policy     string
	iterations int
	options    OptionsSpec
}

// decode reads an AssignRequest-shaped body; errors wrap
// spec.ErrInvalid. An empty body decodes to the zero request.
func (b *assignBody) decode(body []byte) error {
	if len(body) == 0 {
		return nil
	}
	d := spec.NewDecoder(body)
	_, err := d.Object(func(key []byte) error {
		switch spec.Field(key, assignFields) {
		case "system":
			return b.system.decode(&d)
		case "policy":
			return d.String(&b.policy)
		case "iterations":
			return d.Int(&b.iterations)
		case "options":
			return b.options.decode(&d)
		}
		return d.Skip()
	})
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return fmt.Errorf("%w: decoding request: %w", spec.ErrInvalid, err)
	}
	return nil
}

// decode reads an options object into o; null leaves o as it was.
func (o *OptionsSpec) decode(d *spec.Decoder) error {
	_, err := d.Object(func(key []byte) error {
		switch spec.Field(key, optionsFields) {
		case "exact":
			return d.Bool(&o.Exact)
		case "static":
			return d.Bool(&o.Static)
		case "tight_best_case":
			return d.Bool(&o.TightBestCase)
		case "stop_at_deadline_miss":
			return d.Bool(&o.StopAtDeadlineMiss)
		case "workers":
			return d.Int(&o.Workers)
		case "max_iterations":
			return d.Int(&o.MaxIterations)
		case "max_scenarios":
			return d.Int(&o.MaxScenarios)
		case "deadline_ms":
			return d.Float(&o.DeadlineMS)
		case "bounds":
			return d.Bool(&o.Bounds)
		}
		return d.Skip()
	})
	return err
}

// edit is a decoded EditSpec whose transactions are in model form as
// written (spec.Draft): apply resolves them against the edited system.
type edit struct {
	platforms []PlatformEdit
	set       []transactionSet
	remove    []int
	add       []model.Transaction
}

// transactionSet is a decoded TransactionSet.
type transactionSet struct {
	index int
	tr    model.Transaction
}

func (e *edit) decode(d *spec.Decoder) (null bool, err error) {
	return d.Object(func(key []byte) error {
		switch spec.Field(key, editFields) {
		case "platforms":
			return spec.DecodeSlice(d, &e.platforms, decodePlatformEdit)
		case "set":
			return spec.DecodeSlice(d, &e.set, decodeTransactionSet)
		case "remove":
			return spec.DecodeSlice(d, &e.remove, (*spec.Decoder).Int)
		case "add":
			return spec.DecodeSlice(d, &e.add, (*spec.Decoder).Transaction)
		}
		return d.Skip()
	})
}

func decodePlatformEdit(d *spec.Decoder, pe *PlatformEdit) error {
	_, err := d.Object(func(key []byte) error {
		switch spec.Field(key, platEditFields) {
		case "index":
			return d.Int(&pe.Index)
		case "alpha":
			return d.Float(&pe.Alpha)
		case "delta":
			return d.Float(&pe.Delta)
		case "beta":
			return d.Float(&pe.Beta)
		}
		return d.Skip()
	})
	return err
}

func decodeTransactionSet(d *spec.Decoder, ts *transactionSet) error {
	_, err := d.Object(func(key []byte) error {
		switch spec.Field(key, setFields) {
		case "index":
			return d.Int(&ts.index)
		case "transaction":
			return d.Transaction(&ts.tr)
		}
		return d.Skip()
	})
	return err
}

// apply returns a validated copy of base with the edit applied, in the
// order EditSpec documents. Every error wraps spec.ErrInvalid (the
// request is at fault) and names the offending element.
func (e *edit) apply(base *model.System) (*model.System, error) {
	sys := base.Clone()
	for _, pe := range e.platforms {
		if pe.Index < 1 || pe.Index > len(sys.Platforms) {
			return nil, fmt.Errorf("%w: platform edit: index %d outside [1, %d]", spec.ErrInvalid, pe.Index, len(sys.Platforms))
		}
		p := &sys.Platforms[pe.Index-1]
		p.Alpha, p.Delta, p.Beta = pe.Alpha, pe.Delta, pe.Beta
	}
	for k := range e.set {
		ts := &e.set[k]
		if ts.index < 1 || ts.index > len(sys.Transactions) {
			return nil, fmt.Errorf("%w: set: index %d outside [1, %d]", spec.ErrInvalid, ts.index, len(sys.Transactions))
		}
		if err := spec.ResolveTransaction(&ts.tr, len(sys.Platforms)); err != nil {
			return nil, fmt.Errorf("set: transaction %d: %w", ts.index, err)
		}
		sys.Transactions[ts.index-1] = ts.tr
	}
	if len(e.remove) > 0 {
		idx := append([]int(nil), e.remove...)
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
	for k := range e.add {
		if err := spec.ResolveTransaction(&e.add[k], len(sys.Platforms)); err != nil {
			return nil, fmt.Errorf("add: transaction %d: %w", k+1, err)
		}
		sys.Transactions = append(sys.Transactions, e.add[k])
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("%w: edited system: %w", spec.ErrInvalid, err)
	}
	return sys, nil
}

// contentTypeJSONValue is the preallocated Content-Type of the
// appended 200 bodies (Header().Set would allocate a []string).
var contentTypeJSONValue = []string{"application/json"}

// writeAnalyzeJSON writes the 200 body of an analyze route: the
// AnalyzeResponse of res, with per-task bounds when asked and the
// session's counters when ss is non-nil, in one Write from a pooled
// buffer.
func writeAnalyzeJSON(w http.ResponseWriter, res *analysis.Result, bounds bool, elapsedMS float64, ss *service.SessionStats) {
	pb := bufPool.Get().(*poolBuf)
	b := appendAnalyzeMembers(pb.b[:0], res, bounds, elapsedMS, ss)
	pb.b = writeJSONBody(w, append(b, '}', '\n'))
	pb.release()
}

// writeAssignJSON writes the 200 body of /v1/assign: the
// AssignResponse of res and of sys, which carries the installed
// priorities.
func writeAssignJSON(w http.ResponseWriter, res *analysis.Result, sys *model.System, bounds bool, elapsedMS float64, policy string) {
	pb := bufPool.Get().(*poolBuf)
	b := appendAnalyzeMembers(pb.b[:0], res, bounds, elapsedMS, nil)
	b = append(b, `,"policy":`...)
	b = appendJSONString(b, policy)
	b = append(b, `,"priorities":`...)
	if len(sys.Transactions) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, tr := range sys.Transactions {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, t := range tr.Tasks {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(t.Priority), 10)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	pb.b = writeJSONBody(w, append(b, '}', '\n'))
	pb.release()
}

// writeJSONBody sends b as a 200 JSON body and returns it for reuse;
// net/http copies the bytes during Write.
func writeJSONBody(w http.ResponseWriter, b []byte) []byte {
	w.Header()["Content-Type"] = contentTypeJSONValue
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
	return b
}

// appendAnalyzeMembers appends the AnalyzeResponse of res from its
// opening brace through its last member, leaving the object open for
// AssignResponse's members. Field order and omitempty follow the
// struct tags. JSON has no Inf or NaN: the nullable bounds write them
// as null, and deadline and elapsed_ms, finite by model validation and
// by the clock, would too.
func appendAnalyzeMembers(b []byte, res *analysis.Result, bounds bool, elapsedMS float64, ss *service.SessionStats) []byte {
	b = append(b, `{"schedulable":`...)
	b = strconv.AppendBool(b, res.Schedulable)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, res.Converged)
	if res.StoppedAtGoal {
		b = append(b, `,"stopped":true`...)
	}
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(res.Iterations), 10)
	if res.ScenariosPruned != 0 {
		b = append(b, `,"scenarios_pruned":`...)
		b = strconv.AppendInt(b, res.ScenariosPruned, 10)
	}
	if res.SubtreesPruned != 0 {
		b = append(b, `,"subtrees_pruned":`...)
		b = strconv.AppendInt(b, res.SubtreesPruned, 10)
	}
	if dl := res.Delta; dl != nil {
		b = append(b, `,"delta":{"clean_tasks":`...)
		b = strconv.AppendInt(b, int64(dl.CleanTasks), 10)
		b = append(b, `,"dirty_tasks":`...)
		b = strconv.AppendInt(b, int64(dl.DirtyTasks), 10)
		b = append(b, `,"replayed_rounds":`...)
		b = strconv.AppendInt(b, int64(dl.ReplayedRounds), 10)
		b = append(b, `,"task_rounds_saved":`...)
		b = strconv.AppendInt(b, int64(dl.TaskRoundsSaved), 10)
		b = append(b, '}')
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, elapsedMS)
	if len(res.Tasks) > 0 {
		b = append(b, `,"transactions":[`...)
		for i, tasks := range res.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			tr := &res.System.Transactions[i]
			b = append(b, '{')
			if tr.Name != "" {
				b = append(b, `"name":`...)
				b = appendJSONString(b, tr.Name)
				b = append(b, ',')
			}
			b = append(b, `"deadline":`...)
			b = appendJSONFloat(b, tr.Deadline)
			b = append(b, `,"response":`...)
			b = appendJSONFloat(b, tasks[len(tasks)-1].Worst)
			b = append(b, `,"schedulable":`...)
			b = strconv.AppendBool(b, res.MeetsDeadline(i))
			if bounds && len(tasks) > 0 {
				b = append(b, `,"tasks":[`...)
				for j, tb := range tasks {
					if j > 0 {
						b = append(b, ',')
					}
					b = append(b, `{"name":`...)
					if name := tr.Tasks[j].Name; name != "" {
						b = appendJSONString(b, name)
					} else {
						// System.TaskName's τi,j, which needs no escaping.
						b = append(b, `"τ`...)
						b = strconv.AppendInt(b, int64(i+1), 10)
						b = append(b, ',')
						b = strconv.AppendInt(b, int64(j+1), 10)
						b = append(b, '"')
					}
					b = append(b, `,"platform":`...)
					b = strconv.AppendInt(b, int64(tr.Tasks[j].Platform+1), 10)
					b = append(b, `,"offset":`...)
					b = appendJSONFloat(b, tb.Offset)
					b = append(b, `,"jitter":`...)
					b = appendJSONFloat(b, tb.Jitter)
					b = append(b, `,"best":`...)
					b = appendJSONFloat(b, tb.Best)
					b = append(b, `,"worst":`...)
					b = appendJSONFloat(b, tb.Worst)
					b = append(b, '}')
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if ss != nil {
		b = append(b, `,"session_stats":{"probes":`...)
		b = strconv.AppendInt(b, ss.Probes, 10)
		b = append(b, `,"memo_hits":`...)
		b = strconv.AppendInt(b, ss.MemoHits, 10)
		b = append(b, `,"executed":`...)
		b = strconv.AppendInt(b, ss.Executed, 10)
		b = append(b, `,"delta_hits":`...)
		b = strconv.AppendInt(b, ss.DeltaHits, 10)
		b = append(b, `,"rounds_saved":`...)
		b = strconv.AppendInt(b, ss.RoundsSaved, 10)
		b = append(b, '}')
	}
	return b
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation that reads back exactly, in exponent form
// below 1e-6 and from 1e21 on, with a one-digit negative exponent
// unpadded. Inf and NaN, which JSON cannot carry, are written null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b) - start; n >= 4 && b[len(b)-4] == 'e' && b[len(b)-3] == '-' && b[len(b)-2] == '0' {
			b[len(b)-2] = b[len(b)-1]
			b = b[:len(b)-1]
		}
	}
	return b
}

// appendJSONString appends s quoted as encoding/json writes a string
// with HTML escaping off: quote, backslash and control bytes escaped
// (\b \f \n \r \t by name, the rest as \u00XX), invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
