package service

import (
	"context"
	"reflect"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
)

// sessionChainSystem draws one deterministic base system for the
// session tests.
func sessionChainSystem(t *testing.T, seed int64) *model.System {
	t.Helper()
	sys, err := gen.System(gen.Config{
		Seed: seed, Platforms: 2, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.45,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mutateChain returns a chain of length n of cumulative one-task WCET
// retunings of base.
func mutateChain(base *model.System, n int) []*model.System {
	out := []*model.System{base}
	cur := base
	for c := 1; c < n; c++ {
		mut := cur.Clone()
		tr := &mut.Transactions[c%len(mut.Transactions)]
		tr.Tasks[c%len(tr.Tasks)].WCET *= 1.0 + 0.01*float64(c)
		out = append(out, mut)
		cur = mut
	}
	return out
}

// TestSessionChainedProbes: probing a mutation chain through a session
// returns results bit-identical to cold engine analyses, every probe
// is accounted exactly once, and the chained one-edit probes ride the
// incremental path.
func TestSessionChainedProbes(t *testing.T) {
	chain := mutateChain(sessionChainSystem(t, 7), 8)
	svc := New(Options{Shards: 1})
	sess := svc.NewSession()
	eng := analysis.NewEngine(analysis.Options{})
	ctx := context.Background()

	for _, sys := range chain {
		got, err := sess.Analyze(ctx, sys)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tasks, want.Tasks) || got.Schedulable != want.Schedulable {
			t.Fatalf("session probe differs from cold analysis")
		}
	}

	st := sess.Stats()
	if st.Probes != int64(len(chain)) {
		t.Fatalf("probes = %d, want %d", st.Probes, len(chain))
	}
	if st.MemoHits+st.Executed != st.Probes {
		t.Fatalf("stats inconsistent: memo %d + executed %d != probes %d", st.MemoHits, st.Executed, st.Probes)
	}
	if st.DeltaHits == 0 || st.RoundsSaved <= 0 {
		t.Fatalf("stats = %+v: chained one-edit probes never rode the delta path", st)
	}
	// Per-session counters roll up into the service's: this session is
	// the only traffic.
	svcSt := svc.Stats()
	if svcSt.Queries != st.Probes || svcSt.DeltaHits != st.DeltaHits || svcSt.RoundsSaved != st.RoundsSaved {
		t.Fatalf("service stats %+v do not roll up session stats %+v", svcSt, st)
	}
	// Re-probing the whole chain is answered entirely by the memo.
	for _, sys := range chain {
		if _, err := sess.Analyze(ctx, sys); err != nil {
			t.Fatal(err)
		}
	}
	st2 := sess.Stats()
	if st2.MemoHits != st.MemoHits+int64(len(chain)) {
		t.Fatalf("re-probe memo hits %d, want %d", st2.MemoHits, st.MemoHits+int64(len(chain)))
	}
}

// TestSessionPinnedSeedBeatsPoolLuck: two interleaved mutation chains
// over disjoint systems. Plain service queries never delta-hit —
// sessions are the only delta path; sessions pin their own seed and
// keep riding the incremental path however the chains interleave —
// the determinism claim.
func TestSessionPinnedSeedBeatsPoolLuck(t *testing.T) {
	chainA := mutateChain(sessionChainSystem(t, 11), 6)
	chainB := mutateChain(sessionChainSystem(t, 23), 6)
	ctx := context.Background()

	// Plain interleaved queries run cold on every miss.
	plain := New(Options{Shards: 1})
	for k := range chainA {
		if _, err := plain.Analyze(ctx, chainA[k]); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Analyze(ctx, chainB[k]); err != nil {
			t.Fatal(err)
		}
	}
	if st := plain.Stats(); st.DeltaHits != 0 {
		t.Fatalf("plain interleaved queries delta-hit %d times; only sessions may seed the delta path", st.DeltaHits)
	}

	// Session-pinned probes on an identically configured service.
	pinned := New(Options{Shards: 1})
	sessA, sessB := pinned.NewSession(), pinned.NewSession()
	for k := range chainA {
		if _, err := sessA.Analyze(ctx, chainA[k]); err != nil {
			t.Fatal(err)
		}
		if _, err := sessB.Analyze(ctx, chainB[k]); err != nil {
			t.Fatal(err)
		}
	}
	stA, stB := sessA.Stats(), sessB.Stats()
	if stA.DeltaHits == 0 || stB.DeltaHits == 0 {
		t.Fatalf("pinned sessions should delta-hit on every chain: A %+v, B %+v", stA, stB)
	}
	if got := pinned.Stats().DeltaHits; got != stA.DeltaHits+stB.DeltaHits {
		t.Fatalf("service delta hits %d != session sum %d", got, stA.DeltaHits+stB.DeltaHits)
	}
}

// TestSessionDrop: dropping the pinned seed releases it; probing
// continues unaffected.
func TestSessionDrop(t *testing.T) {
	chain := mutateChain(sessionChainSystem(t, 41), 3)
	svc := New(Options{Shards: 1})
	sess := svc.NewSession()
	ctx := context.Background()
	if _, err := sess.Analyze(ctx, chain[0]); err != nil {
		t.Fatal(err)
	}
	if sess.currentSeed() == nil {
		t.Fatalf("no seed pinned after an executed probe")
	}
	sess.Drop()
	if sess.currentSeed() != nil {
		t.Fatalf("seed survived Drop")
	}
	if _, err := sess.Analyze(ctx, chain[1]); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Probes != 2 {
		t.Fatalf("probes = %d, want 2", st.Probes)
	}
}
