package batch

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndValues(t *testing.T) {
	out, err := Map(100, Options{Workers: 7}, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(i int) (string, error) { return fmt.Sprintf("v%d", i*3), nil }
	a, err := Map(57, Options{Workers: 1}, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(57, Options{Workers: 16}, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	// Items past 17 wait until item 17 has started, so a worker holding
	// 17 that is descheduled before calling fn cannot let the others
	// run the whole range before any error exists. The only window
	// left is between fn(17) returning and Map recording the failure.
	started := make(chan struct{})
	_, err := Map(1000, Options{Workers: 4}, func(i int) (int, error) {
		calls.Add(1)
		if i == 17 {
			close(started)
			return 0, boom
		}
		if i > 17 {
			<-started
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Cancellation: nowhere near all 1000 items should have run.
	if calls.Load() > 500 {
		t.Errorf("%d calls after early error; cancellation ineffective", calls.Load())
	}
}

func TestMapEdgeCases(t *testing.T) {
	out, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("n=0: %v, %v", out, err)
	}
	if _, err := Map(-1, Options{}, func(i int) (int, error) { return 0, nil }); err == nil {
		t.Errorf("negative n accepted")
	}
	// More workers than items.
	out, err = Map(3, Options{Workers: 64}, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Errorf("workers>n: %v, %v", out, err)
	}
}
