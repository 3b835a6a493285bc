package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	cases := []struct {
		n       int
		q       float64
		beyond  int
		support bool
	}{
		{1000, 0.99, 10, true}, // 990 is the p99; 991..1000 lie beyond
		{999, 0.99, 9, false},  // one sample short
		{1100, 0.99, 11, true}, // ceil(1089) = 1089th sample; 11 beyond
		{20, 0.5, 10, true},    // the median of 20 has 10 above it
		{19, 0.5, 9, false},    //
		{0, 0.5, 0, false},     // nothing measured
		{100000, 0.9999, 10, true},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := supported(c.n, c.q); got != c.support {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.support)
		}
	}
	for n, want := range map[int]float64{5: 0, 20: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10000: 0.999, 1_000_000: 0.9999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should read 0")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	v := []float64{3, 1, 2}
	if got := median(v); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if v[0] != 3 || v[1] != 1 {
		t.Errorf("median sorted its input: %v", v)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "parent", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 60}, // overlaps a by 10
		{id: 4, parent: 3, name: "grandchild", start: 35, end: 45},
		{id: 5, name: "twin-parent", start: 200, end: 300},
		{id: 6, parent: 5, name: "twin", start: 400, end: 430}, // outside its parent
		{id: 7, name: "small", start: 500, end: 510},
		{id: 8, parent: 7, name: "big", start: 520, end: 560}, // a twin slower than its parent
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 50, // children cover [10, 60]: the overlap counts once
		2: 30,
		3: 30 - 10, // only direct children are subtracted
		4: 10,
		5: 100 - 30, // a twin child is subtracted wherever it ran
		6: 30,
		7: -30, // not clamped: sums over requests stay unbiased
		8: 40,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := coverage([]span{{start: 0, end: 5}, {start: 5, end: 8}, {start: 20, end: 21}}); got != 9 {
		t.Errorf("coverage of touching and disjoint intervals = %d, want 9", got)
	}
	if coverage(nil) != 0 {
		t.Error("coverage of nothing should be 0")
	}
}

func TestFailedRatioAccounting(t *testing.T) {
	ck := newChecker(&inputs{kind: kindAnalyze})
	ok := []byte(`{"schedulable":true,"converged":true,"iterations":1}`)
	records := []*record{
		{status: 0, err: errTransport},    // transport error
		{status: 503, body: []byte("{}")}, // non-200
		{status: 200, body: []byte("{")},  // undecodable answer
		{status: 200, body: ok},           // wrong answer: the reference is unschedulable
	}
	var tl tally
	for _, r := range records {
		err := ck.check(r, &call{}, overloaded(), false)
		tl.add(err != nil)
	}
	if tl.attempted != 4 || tl.failed != 4 || tl.succeeded() != 0 {
		t.Fatalf("tally = %+v, want 4 attempted, 4 failed", tl)
	}
	tl.add(false)
	if got := tl.failedRatio(); got != 0.8 {
		t.Errorf("failed ratio = %v, want 0.8", got)
	}
	if (tally{}).failedRatio() != 0 {
		t.Error("failed ratio before any attempt should be 0")
	}
	sum := tl.plus(tally{attempted: 5})
	if sum.attempted != 10 || sum.failed != 4 {
		t.Errorf("plus = %+v", sum)
	}
}

func TestRatioZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio over a zero base = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("0/0 = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	// An idle layer reads 0 in every per-layer ratio, never NaN.
	d := (&measured{}).delta()
	if r := ratio(d.hits, d.queries); r != 0 {
		t.Errorf("hit ratio of an idle service = %v", r)
	}
}
