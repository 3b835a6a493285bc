package service

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"hsched/internal/gen"
	"hsched/internal/model"
)

// internTestSystem returns a fresh decoded-copy-equivalent of one
// fixed system: equal across calls, never pointer-shared.
func internTestSystem(t testing.TB) *model.System {
	t.Helper()
	sys, err := gen.System(gen.Config{
		Seed: 9, Platforms: 2, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 300, Utilization: 0.4,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestInternCollapsesDuplicates drives the 1e5-duplicate workload of
// the acceptance criteria: every decoded copy of one system collapses
// onto the first caller's pointer and the pool stays at one resident —
// the memory-stability property, asserted via stats.
func TestInternCollapsesDuplicates(t *testing.T) {
	svc := New(Options{})
	canonical, fp := svc.Intern(internTestSystem(t))
	if fp != canonical.Fingerprint() {
		t.Fatal("Intern returned a fingerprint that is not the resident's")
	}
	const dups = 100_000
	for i := 0; i < dups; i++ {
		// Each iteration simulates one freshly decoded copy.
		got, gotFP := svc.Intern(internTestSystem(t))
		if got != canonical {
			t.Fatalf("duplicate %d: got a distinct pointer", i)
		}
		if gotFP != fp {
			t.Fatalf("duplicate %d: fingerprint drifted", i)
		}
	}
	st := svc.Stats()
	if st.Resident != 1 {
		t.Fatalf("Resident = %d after %d duplicate interns, want 1", st.Resident, dups)
	}
	if st.InternMisses != 1 || st.InternHits != dups {
		t.Fatalf("InternHits/Misses = %d/%d, want %d/1", st.InternHits, st.InternMisses, dups)
	}
}

// TestInternedZeroDecode exercises the lookup-only path: a miss counts
// nothing (the caller will decode and intern, which counts it), a hit
// counts one hit and returns the resident pointer.
func TestInternedZeroDecode(t *testing.T) {
	svc := New(Options{})
	sys := internTestSystem(t)
	fp := sys.Fingerprint()

	if _, ok := svc.Interned(fp); ok {
		t.Fatal("Interned hit on an empty pool")
	}
	if st := svc.Stats(); st.InternHits != 0 || st.InternMisses != 0 {
		t.Fatalf("lookup miss counted: %+v", st)
	}

	resident := svc.InternFingerprinted(fp, sys)
	if resident != sys {
		t.Fatal("first intern did not install the argument")
	}
	got, ok := svc.Interned(fp)
	if !ok || got != resident {
		t.Fatal("Interned did not return the resident after intern")
	}
	if st := svc.Stats(); st.InternHits != 1 || st.InternMisses != 1 || st.Resident != 1 {
		t.Fatalf("counters after miss+intern+hit: %+v", st)
	}
}

// TestInternEviction asserts the pool is bounded: past capacity a
// resident never looked up is dropped and the gauge tracks it. One
// stripe, so the whole capacity is one slice and the eviction order is
// exact: a, looked up before b arrives, leaves probation for main, and
// c drops b from probation.
func TestInternEviction(t *testing.T) {
	svc := New(Options{Shards: 1, Capacity: 2})
	mk := func(period float64) *model.System {
		sys := internTestSystem(t)
		sys.Transactions[0].Period = period
		return sys
	}
	_, fpA := svc.Intern(mk(100))
	if _, ok := svc.Interned(fpA); !ok {
		t.Fatal("a not resident")
	}
	b, fpB := svc.Intern(mk(200))
	svc.Intern(mk(300)) // evicts b
	if st := svc.Stats(); st.Resident != 2 {
		t.Fatalf("Resident = %d with capacity 2, want 2", st.Resident)
	}
	if _, ok := svc.Interned(fpB); ok {
		t.Fatal("evicted resident still resident")
	}
	// Re-interning after eviction installs anew.
	b2, _ := svc.Intern(mk(200))
	if b2 == b {
		t.Fatal("evicted pointer returned by a fresh intern (pool kept a stale reference)")
	}
}

// TestInternResidentGauge: after a randomised intern workload over four
// stripes that evicts, the Resident gauge equals the pools' summed
// Len. InternFingerprinted counts a resident only when its Put evicted
// nothing, which holds because a Put evicts at most one entry.
func TestInternResidentGauge(t *testing.T) {
	const population, ops = 64, 4000
	svc := New(Options{Shards: 4, Capacity: 16})
	systems := make([]*model.System, population)
	fps := make([]model.Fingerprint, population)
	for k := range systems {
		systems[k] = internTestSystem(t)
		systems[k].Transactions[0].Period = float64(100 + k)
		fps[k] = systems[k].Fingerprint()
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range ops {
		k := rng.IntN(population)
		if rng.IntN(3) == 0 {
			svc.Interned(fps[k]) // a hit touches
		} else {
			svc.InternFingerprinted(fps[k], systems[k])
		}
	}
	sum := 0
	for i := range svc.stripes {
		sum += svc.stripes[i].intern.Len()
	}
	st := svc.Stats()
	if st.Resident != int64(sum) {
		t.Fatalf("Resident = %d, stripes hold %d", st.Resident, sum)
	}
	if st.InternMisses <= st.Resident {
		t.Fatalf("%d misses for %d residents: the workload never evicted", st.InternMisses, st.Resident)
	}
}

// TestInternConcurrentWithMemo interns and analyses from several
// goroutines at once, so intern lookups, installs and memo traffic
// share each stripe's mutex (its assertions fire under -race). Every
// caller must get the one resident pointer per fingerprint, and the
// intern counters must balance at quiescence.
func TestInternConcurrentWithMemo(t *testing.T) {
	const population, goroutines, iters = 4, 8, 40
	svc := New(Options{Shards: 2})
	mk := func(k int) *model.System {
		sys := internTestSystem(t)
		sys.Transactions[0].Period = float64(100 * (k + 1))
		return sys
	}
	residents := make([]chan *model.System, population)
	for k := range residents {
		residents[k] = make(chan *model.System, goroutines*iters)
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iters {
				k := (g + i) % population
				sys, fp := svc.Intern(mk(k))
				residents[k] <- sys
				if _, err := svc.AnalyzeFingerprinted(context.Background(), fp, sys, svc.opt.Analysis, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range residents {
		close(residents[k])
		var first *model.System
		for sys := range residents[k] {
			if first == nil {
				first = sys
			} else if sys != first {
				t.Fatalf("system %d interned to two pointers", k)
			}
		}
	}
	st := svc.Stats()
	if st.InternHits+st.InternMisses != goroutines*iters || st.InternMisses != population || st.Resident != population {
		t.Fatalf("intern counters %+v, want %d calls, %d misses and residents", st, goroutines*iters, population)
	}
}

// TestNonPositiveCapacitySelectsDefault: the memo and the intern pool
// have no off-switch; a zero or negative Capacity sizes both at the
// default.
func TestNonPositiveCapacitySelectsDefault(t *testing.T) {
	ctx := context.Background()
	for _, c := range []int{0, -1} {
		if got := (Options{Capacity: c}).capacity(); got != 4096 {
			t.Errorf("Capacity %d: capacity() = %d, want 4096", c, got)
		}
		svc := New(Options{Shards: 1, Capacity: c})
		sys := internTestSystem(t)
		svc.Intern(sys)
		if got, _ := svc.Intern(sys.Clone()); got != sys {
			t.Errorf("Capacity %d: an equal system did not collapse onto the resident", c)
		}
		for i := 0; i < 2; i++ {
			if _, err := svc.Analyze(ctx, sys); err != nil {
				t.Fatal(err)
			}
		}
		if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 || st.InternHits != 1 {
			t.Errorf("Capacity %d: stats %+v, want the repeat to hit the memo and the pool", c, st)
		}
	}
}

// TestAnalyzeFingerprinted asserts the fingerprint-threaded entry
// point joins the ladder exactly like AnalyzeOptions: same result,
// memo hits across the two spellings, and the session variant pins
// seeds like its plain counterpart.
func TestAnalyzeFingerprinted(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	sys, fp := svc.Intern(internTestSystem(t))

	res1, err := svc.AnalyzeFingerprinted(ctx, fp, sys, svc.opt.Analysis, false)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := svc.Analyze(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("AnalyzeFingerprinted and Analyze did not share one memo entry")
	}
	if st := svc.Stats(); st.Queries != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after fp+plain query: %+v", st)
	}

	stat, err := svc.AnalyzeFingerprinted(ctx, fp, sys, svc.opt.Analysis, true)
	if err != nil {
		t.Fatal(err)
	}
	if stat == res1 {
		t.Fatal("static=true shared the dynamic memo entry")
	}

	sess := svc.NewSession()
	if _, err := sess.AnalyzeFingerprinted(ctx, fp, sys, svc.opt.Analysis); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Probes != 1 || st.MemoHits != 1 {
		t.Fatalf("session stats after memoised fp probe: %+v", st)
	}
}
