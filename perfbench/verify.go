package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"hsched/internal/analysis"
	"hsched/internal/httpd"
	"hsched/internal/model"
	"hsched/internal/sched"
	"hsched/internal/service"
)

// record is one answered request, kept for checking after the timed
// sections.
type record struct {
	conn, i int  // connection and stream index (warm-up index if warm)
	warm    bool // a set-up request
	binary  bool // sent with the binary codec
	bytes   int  // request body size
	phase   string
	status  int
	err     error
	body    []byte // response body
	// failed is set by verify.
	failed bool
}

// call regenerates the request a record answered.
func (in *inputs) call(r *record) (*call, error) {
	if r.warm {
		return &in.warm[r.conn][r.i], nil
	}
	return in.stream(r.conn, r.i)
}

// ledger is every request one server instance answered, per
// connection, in send order: session chains are replayed from it.
type ledger [conns][]*record

// expected is a cold in-process reference answer.
type expected struct {
	res  *analysis.Result
	prio [][]int // assign only: the installed priorities
	err  error
}

// checker computes reference answers and checks responses against
// them. References of reused systems are memoised per system pointer:
// hit-mix sends each of its systems thousands of times.
type checker struct {
	in   *inputs
	mu   sync.Mutex
	refs map[*model.System]*expected
	// errors keeps the first few failures for the report.
	errors []string
}

func newChecker(in *inputs) *checker {
	return &checker{in: in, refs: make(map[*model.System]*expected)}
}

// reference returns the cold reference answer for sys: analysis.Analyze
// with the request's options, or sched.Assign on a fresh service.
func (ck *checker) reference(sys *model.System, shared bool) *expected {
	if shared {
		ck.mu.Lock()
		e, ok := ck.refs[sys]
		ck.mu.Unlock()
		if ok {
			return e
		}
	}
	e := &expected{}
	opt := ck.in.analysis()
	if ck.in.kind == kindAssign {
		work := sys.Clone()
		e.res, _, e.err = sched.Assign(context.Background(), work, sched.PolicyAudsley, sched.AssignOptions{
			Analysis: opt,
			Service:  service.New(service.Options{Shards: 1}),
		})
		for _, tr := range work.Transactions {
			p := make([]int, len(tr.Tasks))
			for j := range p {
				p[j] = tr.Tasks[j].Priority
			}
			e.prio = append(e.prio, p)
		}
	} else {
		e.res, e.err = analysis.Analyze(sys, opt)
	}
	if shared {
		ck.mu.Lock()
		ck.refs[sys] = e
		ck.mu.Unlock()
	}
	return e
}

// check compares one response with the reference answer for sys: the
// verdict, iteration count and every transaction's end-to-end response
// must be bit-equal (and, for a search, every installed priority).
func (ck *checker) check(r *record, cl *call, sys *model.System, shared bool) error {
	if r.err != nil {
		return fmt.Errorf("transport: %w", r.err)
	}
	if r.status != 200 {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	exp := ck.reference(sys, shared)
	if exp.err != nil {
		return fmt.Errorf("reference: %w", exp.err)
	}
	var got *httpd.AnalyzeResponse
	switch {
	case cl.binary:
		var err error
		if got, err = httpd.DecodeAnalyzeResponseBinary(r.body); err != nil {
			return err
		}
	case ck.in.kind == kindAssign:
		var ar httpd.AssignResponse
		if err := json.Unmarshal(r.body, &ar); err != nil {
			return err
		}
		if fmt.Sprint(ar.Priorities) != fmt.Sprint(exp.prio) {
			return fmt.Errorf("priorities %v, reference %v", ar.Priorities, exp.prio)
		}
		got = &ar.AnalyzeResponse
	default:
		got = new(httpd.AnalyzeResponse)
		if err := json.Unmarshal(r.body, got); err != nil {
			return err
		}
	}
	return sameAnswer(exp.res, got)
}

func sameAnswer(ref *analysis.Result, got *httpd.AnalyzeResponse) error {
	if got.Schedulable != ref.Schedulable || got.Converged != ref.Converged || got.Iterations != ref.Iterations {
		return fmt.Errorf("verdict (sched %v, conv %v, iter %d), reference (%v, %v, %d)",
			got.Schedulable, got.Converged, got.Iterations, ref.Schedulable, ref.Converged, ref.Iterations)
	}
	if len(got.Transactions) != len(ref.Tasks) {
		return fmt.Errorf("%d transactions, reference %d", len(got.Transactions), len(ref.Tasks))
	}
	for i, tv := range got.Transactions {
		want := ref.TransactionResponse(i)
		switch {
		case math.IsInf(want, 1) && tv.Response == nil:
		case tv.Response != nil && math.Float64bits(*tv.Response) == math.Float64bits(want):
		default:
			return fmt.Errorf("transaction %d response %v, reference %v", i+1, tv.Response, want)
		}
	}
	return nil
}

// sameResult compares two analyses of one system bit for bit: the
// verdict, the iteration count and every end-to-end response.
func sameResult(a, b *analysis.Result) error {
	if a.Schedulable != b.Schedulable || a.Converged != b.Converged || a.Iterations != b.Iterations || len(a.Tasks) != len(b.Tasks) {
		return fmt.Errorf("verdict (sched %v, conv %v, iter %d) vs (%v, %v, %d)",
			a.Schedulable, a.Converged, a.Iterations, b.Schedulable, b.Converged, b.Iterations)
	}
	for i := range a.Tasks {
		if x, y := a.TransactionResponse(i), b.TransactionResponse(i); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("transaction %d response %v vs %v", i+1, x, y)
		}
	}
	return nil
}

// verify checks every record of a ledger and marks the failed ones.
// Session chains are replayed per connection to find each edit's
// system; the server advances a session only on success, and so does
// the replay. Checks run on one goroutine per connection.
func (ck *checker) verify(l *ledger) {
	var wg sync.WaitGroup
	for c := range l {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cur *model.System
			for _, r := range l[c] {
				cl, err := ck.in.call(r)
				if err != nil {
					r.failed = true
					ck.note(err)
					continue
				}
				// Only reused systems are worth memoising: hit-mix's
				// population and the warm-ups.
				sys, shared := cl.sys, (ck.in.cycle > 0 || r.warm) && cl.edit == nil
				if e := cl.edit; e != nil {
					if cur == nil {
						r.failed = true
						ck.note(fmt.Errorf("edit before any base system"))
						continue
					}
					sys = cur.Clone()
					sys.Transactions[e.tx] = scaled(e.base, e.tx, e.factor)
				}
				if err := ck.check(r, cl, sys, shared); err != nil {
					r.failed = true
					ck.note(err)
				}
				if ck.in.kind == kindSession && r.status == 200 {
					cur = sys
				}
			}
		}()
	}
	wg.Wait()
}

func (ck *checker) note(err error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if len(ck.errors) < 5 {
		ck.errors = append(ck.errors, err.Error())
	}
}

// tallies sums a ledger's records by phase.
func tallies(l *ledger, into map[string]tally) {
	for c := range l {
		for _, r := range l[c] {
			t := into[r.phase]
			t.add(r.failed)
			into[r.phase] = t
		}
	}
}
