package cache

import (
	"slices"
	"sync"
	"testing"
)

// keys lists the resident keys from the hot end to the cold end.
func keys[V any](c *Clock[string, V]) []string {
	var out []string
	for e := c.root.colder; e != &c.root; e = e.colder {
		out = append(out, e.key)
	}
	return out
}

func wantKeys[V any](t *testing.T, c *Clock[string, V], want ...string) {
	t.Helper()
	if got := keys(c); !slices.Equal(got, want) {
		t.Fatalf("hot→cold order %v, want %v", got, want)
	}
}

func touch[V any](t *testing.T, c *Clock[string, V], k string) {
	t.Helper()
	e := c.Get(k)
	if e == nil {
		t.Fatalf("%s not resident", k)
	}
	e.Touch()
}

// TestClockSecondChanceRotation: a touched cold-end entry has its bit
// cleared and rotates to the hot end instead of being evicted; the
// next untouched entry goes. The cleared bit buys exactly one pass.
func TestClockSecondChanceRotation(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	wantKeys(t, c, "c", "b", "a")
	c.Get("a").Touch()
	if v, ok := c.Put("d", 4); !ok || v != 2 {
		t.Fatalf("evicted %v, %v; want b's value 2", v, ok)
	}
	wantKeys(t, c, "a", "d", "c")
	if v, ok := c.Put("e", 5); !ok || v != 3 {
		t.Fatalf("evicted %v, %v; want c's value 3", v, ok)
	}
	wantKeys(t, c, "e", "a", "d")
	if v, ok := c.Put("f", 6); !ok || v != 4 {
		t.Fatalf("evicted %v, %v; want d's value 4", v, ok)
	}
	if v, ok := c.Put("g", 7); !ok || v != 1 {
		t.Fatalf("evicted %v, %v; want a's value 1 once its bit is spent", v, ok)
	}
	wantKeys(t, c, "g", "f", "e")
}

// TestClockPutRefresh: Put on a resident key replaces its value and
// moves it to the hot end, evicting nothing.
func TestClockPutRefresh(t *testing.T) {
	c := New[string, string](4)
	c.Put("a", "a1")
	c.Put("b", "b1")
	c.Put("c", "c1")
	c.Put("d", "d1")
	if _, ok := c.Put("a", "a2"); ok {
		t.Fatal("refreshing a resident key evicted")
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d after a refresh, want 4", c.Len())
	}
	if v := c.Get("a").Value(); v != "a2" {
		t.Fatalf("refreshed value %q, want a2", v)
	}
	wantKeys(t, c, "a", "d", "c", "b")
}

// TestClockFreshNeverVictim: when every other entry was touched since
// the last sweep, the entry just inserted still survives its own Put.
func TestClockFreshNeverVictim(t *testing.T) {
	for _, capacity := range []int{1, 2, 5} {
		c := New[string, int](capacity)
		for i := range capacity {
			c.Put(string(rune('a'+i)), i)
		}
		for i := range capacity {
			touch(t, c, string(rune('a'+i)))
		}
		if v, ok := c.Put("new", -1); !ok || v != 0 {
			t.Fatalf("capacity %d: evicted %v, %v; want the coldest old entry (0)", capacity, v, ok)
		}
		if c.Get("new") == nil {
			t.Fatalf("capacity %d: the fresh entry evicted itself", capacity)
		}
	}
}

// TestClockDeleteClearLenAll covers the bookkeeping surface.
func TestClockDeleteClearLenAll(t *testing.T) {
	c := New[string, int](4)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if v, ok := c.Delete("b"); !ok || v != 1 {
		t.Fatalf("Delete(b) = %v, %v; want 1, true", v, ok)
	}
	if _, ok := c.Delete("b"); ok {
		t.Fatal("Delete of an absent key reported success")
	}
	if c.Get("b") != nil || c.Len() != 2 {
		t.Fatalf("b still resident or Len = %d, want 2", c.Len())
	}
	wantKeys(t, c, "c", "a")

	c.Clear()
	if c.Len() != 0 || c.Get("a") != nil {
		t.Fatal("Clear left entries resident")
	}
	wantKeys[int](t, c)
	c.Put("d", 3)
	wantKeys(t, c, "d")

	zero := New[string, int](0)
	if _, ok := zero.Put("a", 1); ok || zero.Len() != 0 || zero.Get("a") != nil {
		t.Fatal("a zero-capacity cache stored an entry")
	}
}

// TestClockGetZeroAllocs locks the hit path — lookup, value read and
// touch — at zero allocations.
func TestClockGetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation makes alloc counts meaningless")
	}
	c := New[[4]int, *int](16)
	x := 7
	for i := range 16 {
		c.Put([4]int{i}, &x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := c.Get([4]int{3})
		if e == nil || e.Value() != &x {
			t.Fatal("miss")
		}
		e.Touch()
	})
	if allocs != 0 {
		t.Errorf("Get allocates %.2f/op, want 0", allocs)
	}
}

// TestClockConcurrentTouchEviction runs readers that touch their
// entries after releasing the caller's lock against writers whose Puts
// sweep and evict under it. Its real assertions fire under -race: the
// touched bit is the only state shared outside the lock.
func TestClockConcurrentTouchEviction(t *testing.T) {
	const (
		capacity = 8
		keySpace = 32
		workers  = 4
		iters    = 2000
	)
	var mu sync.Mutex
	c := New[int, int](capacity)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(2)
		go func() { // reader
			defer wg.Done()
			for i := range iters {
				k := (i*7 + g) % keySpace
				mu.Lock()
				e := c.Get(k)
				var v int
				if e != nil {
					v = e.Value()
				}
				mu.Unlock()
				if e != nil {
					e.Touch()
					if v != k*k {
						t.Errorf("key %d holds %d", k, v)
						return
					}
				}
			}
		}()
		go func() { // writer
			defer wg.Done()
			for i := range iters {
				k := (i*5 + g*3) % keySpace
				mu.Lock()
				c.Put(k, k*k)
				if c.Len() > capacity {
					t.Errorf("Len = %d past capacity %d", c.Len(), capacity)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	resident := 0
	for e := c.root.colder; e != &c.root; e = e.colder {
		resident++
		if c.Get(e.key) != e || e.value != e.key*e.key {
			t.Fatalf("list and index disagree on key %d", e.key)
		}
	}
	if resident != c.Len() || resident != capacity {
		t.Fatalf("iterated %d entries, Len %d, want %d", resident, c.Len(), capacity)
	}
}
