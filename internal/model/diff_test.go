package model_test

import (
	"testing"

	"hsched/internal/model"
	"hsched/internal/platform"
)

func diffSystem() *model.System {
	return &model.System{
		Platforms: []platform.Params{
			{Alpha: 0.4, Delta: 1, Beta: 1},
			{Alpha: 0.2, Delta: 2, Beta: 1},
		},
		Transactions: []model.Transaction{
			{Name: "A", Period: 50, Deadline: 50, Tasks: []model.Task{
				{Name: "a1", WCET: 1, BCET: 0.5, Priority: 2, Platform: 0},
				{Name: "a2", WCET: 2, BCET: 1, Priority: 1, Platform: 1},
			}},
			{Name: "B", Period: 15, Deadline: 15, Tasks: []model.Task{
				{Name: "b1", WCET: 1, BCET: 0.25, Priority: 3, Platform: 0},
			}},
			{Name: "C", Period: 70, Deadline: 70, Tasks: []model.Task{
				{Name: "c1", WCET: 7, BCET: 5, Priority: 1, Platform: 1},
			}},
		},
	}
}

func TestTransactionFingerprintIgnoresNames(t *testing.T) {
	a := diffSystem().Transactions[0]
	b := diffSystem().Transactions[0]
	b.Name = "renamed"
	b.Tasks[0].Name = "also renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("renaming changed the transaction fingerprint: names are analysis-irrelevant")
	}
	c := diffSystem().Transactions[0]
	c.Tasks[0].WCET += 1e-9
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("WCET change did not move the transaction fingerprint")
	}
}

// TestTransactionFingerprintIgnoresDerivedOffsets: the holistic
// analysis overwrites non-initial tasks' offsets and jitters before
// the first round, so spec values there are analysis-irrelevant and
// must not move the fingerprint — while the first task's external
// release offset/jitter must.
func TestTransactionFingerprintIgnoresDerivedOffsets(t *testing.T) {
	a := diffSystem().Transactions[0]
	b := diffSystem().Transactions[0]
	b.Tasks[1].Offset = 17
	b.Tasks[1].Jitter = 3
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("derived offset/jitter moved the transaction fingerprint")
	}
	c := diffSystem().Transactions[0]
	c.Tasks[0].Offset = 1
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("external release offset change did not move the fingerprint")
	}
	d := diffSystem().Transactions[0]
	d.Tasks[0].Jitter = 0.5
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatalf("external release jitter change did not move the fingerprint")
	}
}

func TestDiffIdentical(t *testing.T) {
	a, b := diffSystem(), diffSystem()
	d := model.Diff(a, b)
	if !d.Identical() {
		t.Fatalf("value-identical systems diff as changed: %+v", d)
	}
	if len(d.Unchanged) != 3 || !d.InOrder() {
		t.Fatalf("want 3 in-order unchanged pairs, got %+v", d.Unchanged)
	}
}

// TestDiffReorder: the same transaction set in a different order must
// diff as all-unchanged (matched by fingerprint), with the reordering
// visible only through InOrder() == false.
func TestDiffReorder(t *testing.T) {
	a, b := diffSystem(), diffSystem()
	b.Transactions[0], b.Transactions[2] = b.Transactions[2], b.Transactions[0]
	d := model.Diff(a, b)
	if len(d.Unchanged) != 3 || len(d.Modified) != 0 || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("reordered set must diff as unchanged: %+v", d)
	}
	if d.InOrder() {
		t.Fatalf("a genuine reordering must not report an in-order matching")
	}
	if d.Identical() {
		t.Fatalf("a reordering is unchanged but not identical")
	}
	// The pairs must map each transaction to its fingerprint twin.
	for _, p := range d.Unchanged {
		if a.Transactions[p[0]].Fingerprint() != b.Transactions[p[1]].Fingerprint() {
			t.Fatalf("pair %v does not match fingerprints", p)
		}
	}
}

// TestDiffNamesOnly: systems differing only in names (analysis
// irrelevant spec fields) diff as unchanged — Diff matches structure,
// not labels.
func TestDiffNamesOnly(t *testing.T) {
	a, b := diffSystem(), diffSystem()
	b.Transactions[0].Name = "A-renamed"
	b.Transactions[0].Tasks[1].Name = "task-renamed"
	d := model.Diff(a, b)
	if !d.Identical() {
		t.Fatalf("name-only differences must diff as identical: %+v", d)
	}
}

func TestDiffEmptyAndNil(t *testing.T) {
	empty := &model.System{}
	d := model.Diff(empty, empty)
	if !d.Identical() {
		t.Fatalf("empty vs empty: %+v", d)
	}
	d = model.Diff(nil, diffSystem())
	if len(d.Added) != 3 || len(d.Unchanged) != 0 || !d.PlatformCountChanged {
		t.Fatalf("nil vs full: %+v", d)
	}
	d = model.Diff(diffSystem(), nil)
	if len(d.Removed) != 3 || len(d.Unchanged) != 0 || !d.PlatformCountChanged {
		t.Fatalf("full vs nil: %+v", d)
	}
	d = model.Diff(nil, nil)
	if !d.Identical() {
		t.Fatalf("nil vs nil: %+v", d)
	}
}

func TestDiffModifiedAddedRemoved(t *testing.T) {
	a, b := diffSystem(), diffSystem()
	// Modify B in place (same name, new WCET), drop C, add D.
	b.Transactions[1].Tasks[0].WCET = 1.5
	b.Transactions = b.Transactions[:2]
	b.Transactions = append(b.Transactions, model.Transaction{
		Name: "D", Period: 100, Deadline: 100, Tasks: []model.Task{
			{WCET: 1, Priority: 1, Platform: 0},
		},
	})
	d := model.Diff(a, b)
	if len(d.Unchanged) != 1 || d.Unchanged[0] != [2]int{0, 0} {
		t.Fatalf("unchanged: %+v", d.Unchanged)
	}
	if len(d.Modified) != 1 || d.Modified[0] != [2]int{1, 1} {
		t.Fatalf("modified: %+v", d.Modified)
	}
	if len(d.Added) != 1 || d.Added[0] != 2 {
		t.Fatalf("added: %+v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != 2 {
		t.Fatalf("removed: %+v", d.Removed)
	}
	if !d.InOrder() {
		t.Fatalf("in-place modification must keep the matching in order")
	}
}

func TestDiffPlatformChanges(t *testing.T) {
	a, b := diffSystem(), diffSystem()
	b.Platforms[1].Alpha = 0.25
	d := model.Diff(a, b)
	if len(d.ChangedPlatforms) != 1 || d.ChangedPlatforms[0] != 1 {
		t.Fatalf("changed platforms: %+v", d)
	}
	if len(d.Unchanged) != 3 {
		t.Fatalf("platform parameter changes must not dirty transaction matching: %+v", d)
	}
	b.Platforms = append(b.Platforms, platform.Params{Alpha: 1})
	d = model.Diff(a, b)
	if !d.PlatformCountChanged || len(d.ChangedPlatforms) != 0 {
		t.Fatalf("platform count change: %+v", d)
	}
}
