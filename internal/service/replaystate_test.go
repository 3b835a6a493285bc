package service

import (
	"context"
	"runtime"
	"testing"

	"hsched/internal/model"
)

// TestReplayStateOnlyForSessions pins the service's recording rule:
// only a session's executed probe can become a seed, so only session
// probes record the per-round replay history. A sessionless miss
// returns a result without replay state; a session probe pins its full
// result as the seed (callers and the memo get it stripped), and the
// session's next one-edit probe replays it. That sessionless misses
// skip the recording itself, rather than record and strip, shows in
// the bytes a miss allocates: the history roughly doubles them.
func TestReplayStateOnlyForSessions(t *testing.T) {
	ctx := context.Background()
	base := sessionChainSystem(t, 51)
	chain := mutateChain(base, 3)
	svc := New(Options{Shards: 1})

	res, err := svc.Analyze(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasReplayState() {
		t.Fatal("a sessionless miss returned a result with replay state")
	}

	sess := svc.NewSession()
	res, err = sess.Analyze(ctx, chain[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.HasReplayState() {
		t.Fatal("a session probe returned its result unstripped")
	}
	if seed := sess.currentSeed(); seed == nil || !seed.HasReplayState() {
		t.Fatal("a session probe did not pin a seed with replay state")
	}
	if _, err := sess.Analyze(ctx, chain[2]); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Executed != 2 || st.DeltaHits != 1 {
		t.Fatalf("session stats %+v: the one-edit probe must replay the pinned seed", st)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocated bytes are meaningless")
	}
	// Every measured query carries a fresh fingerprint (one WCET nudged)
	// and so misses; the session drops its seed before each probe, so
	// both paths run the same cold analyses, recording or not. The
	// minimum over three rounds discards rounds in which a GC emptied
	// the engine pool.
	const n = 32
	nudge := 0
	fresh := func() *model.System {
		nudge++
		sys := base.Clone()
		sys.Transactions[0].Tasks[0].WCET += float64(nudge) * 1e-9
		return sys
	}
	bytesPerMiss := func(analyze func(*model.System) error) uint64 {
		best := ^uint64(0)
		for round := 0; round < 3; round++ {
			systems := make([]*model.System, n)
			for i := range systems {
				systems[i] = fresh()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, sys := range systems {
				if err := analyze(sys); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		return best
	}
	sessionless := bytesPerMiss(func(sys *model.System) error {
		_, err := svc.Analyze(ctx, sys)
		return err
	})
	recorded := bytesPerMiss(func(sys *model.System) error {
		sess.Drop()
		_, err := sess.Analyze(ctx, sys)
		return err
	})
	t.Logf("bytes per miss: sessionless %d, session %d", sessionless, recorded)
	if 5*sessionless > 4*recorded {
		t.Errorf("a sessionless miss allocates %d B against a session probe's %d B: it records the replay history it cannot use", sessionless, recorded)
	}
}
