package service_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// TestServiceHitZeroAllocs locks the in-process memo-hit path at zero
// allocations per query: fingerprint (pooled encode buffer), stripe
// lookup, CLOCK touch and atomic counters all run allocation-free.
func TestServiceHitZeroAllocs(t *testing.T) {
	if service.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are meaningless")
	}
	ctx := context.Background()
	sys := testSystem(t, 7)
	svc := service.New(service.Options{Analysis: analysis.Options{Workers: 1}})
	// First call misses and installs; a few more warm the buffer pools.
	for i := 0; i < 8; i++ {
		if _, err := svc.Analyze(ctx, sys); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := svc.Analyze(ctx, sys); err != nil {
			t.Fatal(err)
		}
	})
	// Per-op allocation counts are integral, so a real regression reads
	// ≥ 1.0; a rare mid-run GC emptying a sync.Pool reads ≪ 1.
	if allocs >= 1 {
		t.Errorf("memo hit allocates %.2f/op, want 0", allocs)
	}
}

// TestServiceStripeStress hammers a single stripe (Shards: 1, so every
// query contends on one mutex) with mixed traffic — memo hits that set
// CLOCK bits, cold misses that evict past the small capacity, and
// colliding cold queries that ride the in-flight dedup path — and
// checks verdict correctness and counter balance afterwards. Its real
// assertions fire under -race: the hit path touches entries and bumps
// counters outside the stripe mutex, the evictor rotates touched
// entries under it, all of which must be clean.
func TestServiceStripeStress(t *testing.T) {
	ctx := context.Background()
	const (
		population = 16
		hot        = 4 // systems 0..3 stay resident and keep getting touched
		goroutines = 8
		iters      = 150
	)
	systems := make([]*model.System, population)
	want := make([]bool, population)
	ref := service.New(service.Options{Shards: 1, Analysis: analysis.Options{Workers: 1}})
	for k := range systems {
		systems[k] = testSystem(t, int64(500+k))
		res, err := ref.Analyze(ctx, systems[k])
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Schedulable
	}

	svc := service.New(service.Options{Shards: 1, Capacity: 6, Analysis: analysis.Options{Workers: 1}})
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var k int
				switch {
				case i%3 != 0:
					// Hot set: memo hits touching CLOCK bits.
					k = (i + g) % hot
				case i%2 == 0:
					// Cold tail: misses and evictions (capacity 6 < 16).
					k = hot + (i*7+g)%(population-hot)
				default:
					// All goroutines converge on the same cold key in
					// the same window: in-flight dedup traffic.
					k = hot + (i/15)%(population-hot)
				}
				res, err := svc.Analyze(ctx, systems[k])
				if err != nil {
					errs[g] = err
					return
				}
				if res.Schedulable != want[k] {
					t.Errorf("system %d: got schedulable=%v, want %v", k, res.Schedulable, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Queries != goroutines*iters {
		t.Fatalf("Queries = %d, want %d", st.Queries, goroutines*iters)
	}
	if st.Hits+st.Misses != st.Queries {
		t.Fatalf("stats = %+v: Hits+Misses != Queries at quiescence", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v: capacity %d over %d systems must evict", st, 6, population)
	}
}

// TestStripeRunsOneAnalysisAtATime pins the service's concurrency
// bound: a stripe runs at most one analysis at a time, so a service
// runs at most Shards at once. On a one-shard service two goroutines
// run Recorder queries (which skip the memo and the in-flight table)
// on distinct multi-round systems; the Recorder counts the callbacks
// in flight and sleeps in each, so overlapping analyses would show.
func TestStripeRunsOneAnalysisAtATime(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{Shards: 1})
	var active, peak, calls atomic.Int64
	rec := func(int, *analysis.Result) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		calls.Add(1)
		time.Sleep(time.Millisecond)
		active.Add(-1)
	}
	opt := analysis.Options{Workers: 1, Recorder: rec}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := svc.AnalyzeOptions(ctx, testSystem(t, int64(700+10*g+i)), opt); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n < 16 {
		t.Fatalf("%d Recorder callbacks over 8 analyses, want multi-round systems", n)
	}
	if p := peak.Load(); p > 1 {
		t.Errorf("%d analyses ran at once on one stripe, want at most 1", p)
	}
}

// TestRunSlotWaitHonoursDeadline: a query queued behind a long analysis
// on its stripe fails by its own deadline instead of waiting the
// analysis out. On a one-shard service a Recorder query blocks in its
// first callback, holding the stripe's run slot until a timer releases
// it 2 s later; a second query with a 20 ms deadline must fail with
// context.DeadlineExceeded long before that.
func TestRunSlotWaitHonoursDeadline(t *testing.T) {
	svc := service.New(service.Options{Shards: 1})
	release := make(chan struct{})
	timer := time.AfterFunc(2*time.Second, func() { close(release) })
	entered := make(chan struct{})
	var once sync.Once
	rec := func(int, *analysis.Result) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	held, queued := testSystem(t, 810), testSystem(t, 811)
	first := make(chan error, 1)
	go func() {
		_, err := svc.AnalyzeOptions(context.Background(), held, analysis.Options{Workers: 1, Recorder: rec})
		first <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.Analyze(ctx, queued)
	waited := time.Since(start)
	if timer.Stop() {
		close(release)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued query: err = %v, want context.DeadlineExceeded", err)
	}
	if waited > time.Second {
		t.Errorf("queued query returned after %v: it waited out the stripe's analysis", waited)
	}
	if err := <-first; err != nil {
		t.Fatalf("blocking Recorder query: %v", err)
	}
}
