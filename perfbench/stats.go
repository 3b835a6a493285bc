package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// for the benchmark to report it: fewer, and the percentile is a
// handful of outliers rather than a measured tail.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples: the smallest sample with at least a q share of the samples
// at or below it. An empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based index of the nearest-rank q-quantile of n
// samples. The guard keeps q·n a hair above an integer (0.99·1100 in
// floating point) from rounding up a rank.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(r, 0), n-1)
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile of n samples (by position, so ties do not hide the tail).
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// supported reports whether n samples support the q-quantile: at least
// minTail samples lie beyond it.
func supported(n int, q float64) bool { return beyond(n, q) >= minTail }

// percentileLadder is the set of percentiles the report names, lowest
// first.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestSupported returns the highest percentile on the ladder that n
// samples support, or 0 when even the median is not supported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// median returns the median of unsorted values (the lower middle for
// an even count, matching quantile); the input is not modified.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is num/den, or 0 when the base den is zero: a counter ratio
// over an idle layer reads 0, never NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts one phase's requests. A request is attempted once and
// fails at most once, whatever went wrong with it: a transport error, a
// non-200 status and a wrong answer all count the same.
type tally struct {
	attempted int
	failed    int
}

// add records one attempted request and whether it failed.
func (t *tally) add(failed bool) {
	t.attempted++
	if failed {
		t.failed++
	}
}

// plus returns the sum of two tallies.
func (t tally) plus(o tally) tally {
	return tally{attempted: t.attempted + o.attempted, failed: t.failed + o.failed}
}

// succeeded is the number of attempted requests that did not fail.
func (t tally) succeeded() int { return t.attempted - t.failed }

// failedRatio is failed ÷ attempted (0 before the first attempt).
func (t tally) failedRatio() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}

// span is one timed call of the traced run. Spans of one request share
// req; parent is the id of the span whose layer the call belongs to,
// or 0 for a root. A child need not lie inside its parent's interval:
// the traced run times a layer by calling its public entry point on
// its own, so a child may re-run, outside the parent's interval, work
// the parent did internally. Its duration is subtracted from the
// parent's all the same.
type span struct {
	id     int64
	parent int64
	req    int64
	name   string
	start  int64 // ns since the trace began
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's self time: its duration minus the
// length of the union of its direct children's intervals. Overlapping
// children (concurrent calls) are counted once. A span whose children
// re-ran its work on their own may come out negative when they ran
// slower than it did; it is not clamped, so sums and shares over many
// requests stay unbiased.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - coverage(children[s.id])
	}
	return self
}

// coverage is the total length of the union of the spans' intervals.
func coverage(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total int64
	lo, hi := iv[0].start, iv[0].end
	for _, s := range iv[1:] {
		if s.start > hi {
			total += hi - lo
			lo, hi = s.start, s.end
			continue
		}
		hi = max(hi, s.end)
	}
	return total + hi - lo
}
