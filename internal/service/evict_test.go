package service_test

import (
	"context"
	"testing"

	"hsched/internal/model"
	"hsched/internal/service"
)

// TestServiceFreshEntryNotSelfEvicted: when every resident memo entry
// was hit since the last sweep, the evictor rotates them all and must
// still not pick the verdict it is inserting — the repeat of the new
// query is a hit. Each verdict is hit before the next system arrives,
// so it leaves probation for main instead of being dropped.
func TestServiceFreshEntryNotSelfEvicted(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{Shards: 1, Capacity: 2})
	a, b, c := testSystem(t, 4), testSystem(t, 5), testSystem(t, 6)
	for i, q := range []struct {
		sys     *model.System
		wantHit bool
	}{{a, false}, {a, true}, {b, false}, {b, true}, {c, false}, {c, true}} {
		before := svc.Stats().Hits
		if _, err := svc.Analyze(ctx, q.sys); err != nil {
			t.Fatal(err)
		}
		if hit := svc.Stats().Hits > before; hit != q.wantHit {
			t.Fatalf("query %d: hit=%v, want %v; stats %+v", i, hit, q.wantHit, svc.Stats())
		}
	}
	if st := svc.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 eviction (a, the coldest rotated entry)", st)
	}
}

// TestInternFreshEntryNotSelfEvicted is the intern-pool form: with both
// residents looked up since the last sweep, interning a third system
// evicts the colder old resident and keeps the new one. Each resident
// is looked up before the next arrives, so it leaves probation for
// main instead of being dropped.
func TestInternFreshEntryNotSelfEvicted(t *testing.T) {
	svc := service.New(service.Options{Shards: 1, Capacity: 2})
	var fps []model.Fingerprint
	for _, seed := range []int64{4, 5} {
		_, fp := svc.Intern(testSystem(t, seed))
		if _, ok := svc.Interned(fp); !ok {
			t.Fatal("resident missing before the third intern")
		}
		fps = append(fps, fp)
	}
	c, fpC := svc.Intern(testSystem(t, 6))
	if got, ok := svc.Interned(fpC); !ok || got != c {
		t.Fatal("the freshly interned system evicted itself")
	}
	if _, ok := svc.Interned(fps[0]); ok {
		t.Fatal("a, the coldest rotated resident, should have been evicted")
	}
	if st := svc.Stats(); st.Resident != 2 {
		t.Fatalf("Resident = %d, want 2", st.Resident)
	}
}

// TestServiceResetForgetsGhosts: Reset leaves a memo that admits like a
// new one. A verdict dropped from probation before the Reset re-enters
// probation afterwards, so the next new system drops it again; had its
// ghost survived, it would have gone straight to main and hit.
func TestServiceResetForgetsGhosts(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{Shards: 1, Capacity: 2})
	a, b, c := testSystem(t, 4), testSystem(t, 5), testSystem(t, 6)
	for i, sys := range []*model.System{a, b, nil, a, c, a} { // nil: Reset
		if sys == nil {
			svc.Reset()
			continue
		}
		if _, err := svc.Analyze(ctx, sys); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := svc.Stats(); st.Hits != 0 || st.Misses != 5 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 5 misses / 0 hits / 2 evictions", st)
	}
}
