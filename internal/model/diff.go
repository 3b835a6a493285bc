package model

import (
	"math"

	"hsched/internal/platform"
)

// SystemDiff is the structural difference between two systems at
// transaction granularity, computed by Diff. Transactions are matched
// by their analysis Fingerprint (names ignored), so a pure reordering
// or renaming diffs as all-unchanged; the remainder is matched by name
// into Modified pairs, and what is left is Added/Removed.
type SystemDiff struct {
	// PlatformCountChanged reports a different number of platforms, in
	// which case platform indices in the two systems are incomparable
	// and ChangedPlatforms is left empty.
	PlatformCountChanged bool

	// ChangedPlatforms lists the platform indices whose (α, Δ, β)
	// parameters differ between the two systems.
	ChangedPlatforms []int

	// Unchanged pairs {old index, new index} of transactions with equal
	// analysis fingerprints, in new-system order. Names may differ.
	Unchanged [][2]int

	// Modified pairs {old index, new index} of transactions with
	// different fingerprints but the same non-empty name, in new-system
	// order.
	Modified [][2]int

	// Added lists new-system transaction indices with no counterpart.
	Added []int

	// Removed lists old-system transaction indices with no counterpart.
	Removed []int
}

// InOrder reports whether the unchanged matching preserves relative
// transaction order: the old indices of Unchanged, read in new-system
// order, are strictly increasing. Insertions and removals keep the
// matching in order; reorderings do not. The incremental analysis
// replays per-round state only for in-order matchings — interference
// terms are summed in transaction index order, so a reordered system
// can differ from the baseline in the last bits of a sum even when
// every operand is identical.
func (d *SystemDiff) InOrder() bool {
	last := -1
	for _, pair := range d.Unchanged {
		if pair[0] <= last {
			return false
		}
		last = pair[0]
	}
	return true
}

// Identical reports a diff with no changes at all: every transaction
// unchanged (in order), no additions or removals, platforms equal.
func (d *SystemDiff) Identical() bool {
	return !d.PlatformCountChanged && len(d.ChangedPlatforms) == 0 &&
		len(d.Modified) == 0 && len(d.Added) == 0 && len(d.Removed) == 0 &&
		d.InOrder()
}

// Diff computes the structural difference between two systems. Either
// may be nil or empty; a nil system diffs like an empty one. The cost
// is one fingerprint pass per transaction plus a linear matching —
// microseconds for realistic systems, negligible next to an analysis.
func Diff(old, new *System) *SystemDiff {
	d := &SystemDiff{}
	oldN, newN := 0, 0
	if old != nil {
		oldN = len(old.Transactions)
	}
	if new != nil {
		newN = len(new.Transactions)
	}

	// Platforms (a nil system has none).
	var oldPlat, newPlat []platform.Params
	if old != nil {
		oldPlat = old.Platforms
	}
	if new != nil {
		newPlat = new.Platforms
	}
	if len(oldPlat) != len(newPlat) {
		d.PlatformCountChanged = true
	} else {
		for m := range oldPlat {
			if oldPlat[m] != newPlat[m] {
				d.ChangedPlatforms = append(d.ChangedPlatforms, m)
			}
		}
	}

	// Match unchanged transactions. Pass 1 is the hot path of
	// admission-control traffic — an in-place edit keeps every other
	// transaction at its position — and compares values directly,
	// avoiding any hashing. Pass 2 handles insertions, removals and
	// reorders by fingerprint, consuming old indices
	// first-in-first-out per fingerprint so duplicates pair up in
	// declaration order.
	oldTaken := make([]bool, oldN)
	newMatched := make([]int, newN) // matched old index, or -1
	pass2 := false
	for n := 0; n < newN; n++ {
		newMatched[n] = -1
		if n >= oldN {
			continue
		}
		if txEquivalent(&old.Transactions[n], &new.Transactions[n]) {
			oldTaken[n] = true
			newMatched[n] = n
		} else {
			pass2 = true
		}
	}
	// When every compared position matched, the leftovers are pure
	// appends (→ Added) or a trailing truncation (→ Removed) — no
	// fingerprinting needed. Only a positional mismatch can leave
	// unmatched transactions on both sides that might still pair up.
	if pass2 {
		byFP := make(map[Fingerprint][]int, oldN)
		for o := 0; o < oldN; o++ {
			if !oldTaken[o] {
				fp := old.Transactions[o].Fingerprint()
				byFP[fp] = append(byFP[fp], o)
			}
		}
		for n := 0; n < newN; n++ {
			if newMatched[n] >= 0 {
				continue
			}
			fp := new.Transactions[n].Fingerprint()
			if q := byFP[fp]; len(q) > 0 {
				o := q[0]
				byFP[fp] = q[1:]
				oldTaken[o] = true
				newMatched[n] = o
			}
		}
	}
	for n := 0; n < newN; n++ {
		if newMatched[n] >= 0 {
			d.Unchanged = append(d.Unchanged, [2]int{newMatched[n], n})
		}
	}

	// Match the rest by (non-empty) name into Modified pairs.
	byName := make(map[string][]int)
	for o := 0; o < oldN; o++ {
		if !oldTaken[o] && old.Transactions[o].Name != "" {
			byName[old.Transactions[o].Name] = append(byName[old.Transactions[o].Name], o)
		}
	}
	for n := 0; n < newN; n++ {
		if newMatched[n] >= 0 {
			continue
		}
		name := new.Transactions[n].Name
		if q := byName[name]; name != "" && len(q) > 0 {
			o := q[0]
			byName[name] = q[1:]
			oldTaken[o] = true
			newMatched[n] = o
			d.Modified = append(d.Modified, [2]int{o, n})
			continue
		}
		d.Added = append(d.Added, n)
	}
	for o := 0; o < oldN; o++ {
		if !oldTaken[o] {
			d.Removed = append(d.Removed, o)
		}
	}
	return d
}

// PriorityOnlyDiff reports whether two transactions differ only in
// task priorities: same task count, period, deadline, and per-task
// parameters (WCET, BCET, platform, blocking, first-task release
// offset and jitter) — with at least one priority actually different.
// Priorities enter the analysis purely through interference-set
// membership (Eq. 17), so a priority-only edit has a much smaller
// reach than a general one; the incremental re-analysis keeps such a
// transaction matched to its seed counterpart, and only the tasks whose
// interference set the move changed lose their seed (the
// priority-search fast path). Floats are compared by bit pattern,
// like txEquivalent.
func PriorityOnlyDiff(a, b *Transaction) bool {
	if len(a.Tasks) != len(b.Tasks) ||
		math.Float64bits(a.Period) != math.Float64bits(b.Period) ||
		math.Float64bits(a.Deadline) != math.Float64bits(b.Deadline) {
		return false
	}
	changed := false
	for j := range a.Tasks {
		x, y := &a.Tasks[j], &b.Tasks[j]
		if math.Float64bits(x.WCET) != math.Float64bits(y.WCET) ||
			math.Float64bits(x.BCET) != math.Float64bits(y.BCET) ||
			x.Platform != y.Platform ||
			math.Float64bits(x.Blocking) != math.Float64bits(y.Blocking) {
			return false
		}
		if j == 0 && (math.Float64bits(x.Offset) != math.Float64bits(y.Offset) ||
			math.Float64bits(x.Jitter) != math.Float64bits(y.Jitter)) {
			return false
		}
		if x.Priority != y.Priority {
			changed = true
		}
	}
	return changed
}

// txEquivalent compares two transactions on exactly the fields
// Transaction.Fingerprint covers, but directly — no hashing. Floats
// are compared by bit pattern, matching the fingerprint's encoding
// (−0 ≠ +0, NaN == NaN-with-same-bits), so the two equivalences can
// never disagree.
func txEquivalent(a, b *Transaction) bool {
	if len(a.Tasks) != len(b.Tasks) ||
		math.Float64bits(a.Period) != math.Float64bits(b.Period) ||
		math.Float64bits(a.Deadline) != math.Float64bits(b.Deadline) {
		return false
	}
	for j := range a.Tasks {
		x, y := &a.Tasks[j], &b.Tasks[j]
		if math.Float64bits(x.WCET) != math.Float64bits(y.WCET) ||
			math.Float64bits(x.BCET) != math.Float64bits(y.BCET) ||
			x.Priority != y.Priority || x.Platform != y.Platform ||
			math.Float64bits(x.Blocking) != math.Float64bits(y.Blocking) {
			return false
		}
		if j == 0 && (math.Float64bits(x.Offset) != math.Float64bits(y.Offset) ||
			math.Float64bits(x.Jitter) != math.Float64bits(y.Jitter)) {
			return false
		}
	}
	return true
}
