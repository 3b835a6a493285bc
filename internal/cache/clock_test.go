package cache

import (
	"hash/maphash"
	"slices"
	"sync"
	"testing"
)

// keys lists a region's keys from the hot end to the cold end.
func keys[V any](l *list[string, V]) []string {
	var out []string
	for e := l.root.colder; e != &l.root; e = e.colder {
		out = append(out, e.key)
	}
	return out
}

func wantKeys[V any](t *testing.T, l *list[string, V], want ...string) {
	t.Helper()
	if got := keys(l); !slices.Equal(got, want) {
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

// put stores v under k and checks what the Put evicted: nothing when
// want is empty, else want[0].
func put[V comparable](t *testing.T, c *Clock[string, V], k string, v V, want ...V) {
	t.Helper()
	got, ok := c.Put(k, v)
	switch {
	case len(want) == 0 && ok:
		t.Fatalf("Put(%s) evicted %v, want no eviction", k, got)
	case len(want) > 0 && (!ok || got != want[0]):
		t.Fatalf("Put(%s) evicted %v, %v; want %v", k, got, ok, want[0])
	}
}

// checkClock asserts the structural invariants: the index and the two
// lists agree entry for entry, each list's length is its count, every
// entry's region flag names its list, probation holds at most its
// share, the cache at most its capacity, and every remembered ghost is
// one of the last capacity drops.
func checkClock[K comparable, V any](t testing.TB, c *Clock[K, V]) {
	t.Helper()
	resident := 0
	for _, l := range []*list[K, V]{&c.probation, &c.main} {
		n := 0
		for e := l.root.colder; e != &l.root; e = e.colder {
			n++
			if c.Get(e.key) != e {
				t.Fatalf("key %v is listed but the index disagrees", e.key)
			}
			if e.inMain != (l == &c.main) {
				t.Fatalf("key %v sits in the wrong list for its region flag", e.key)
			}
		}
		if n != l.len {
			t.Fatalf("a list walks %d entries but counts %d", n, l.len)
		}
		resident += n
	}
	if resident != c.Len() {
		t.Fatalf("lists hold %d entries, Len is %d", resident, c.Len())
	}
	if c.capacity >= 1 && c.Len() > c.capacity {
		t.Fatalf("Len %d past capacity %d", c.Len(), c.capacity)
	}
	if c.probation.len > c.probationCap {
		t.Fatalf("probation holds %d, past its share %d", c.probation.len, c.probationCap)
	}
	g := &c.ghosts
	for h, at := range g.at {
		if at >= g.drops || at+uint64(len(g.ring)) < g.drops || g.ring[at%uint64(len(g.ring))] != h {
			t.Fatalf("ghost %x of drop %d is not in the window of %d drops", h, at, g.drops)
		}
	}
}

// TestClockProbationDropsOneHitWonders: untouched keys pass through
// probation and are dropped with a ghost, whatever room the cache has
// left; a touched one is promoted; a ghost brings its key straight
// into main.
func TestClockProbationDropsOneHitWonders(t *testing.T) {
	c := New[string, int](5) // probation holds 2
	put(t, c, "a", 1)
	put(t, c, "b", 2)
	touch(t, c, "a")
	put(t, c, "c", 3) // a promoted
	wantKeys(t, &c.main, "a")
	put(t, c, "d", 4, 2) // b, never touched, dropped with room to spare
	wantKeys(t, &c.probation, "d", "c")
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	put(t, c, "b", 5) // b's ghost: straight into main
	wantKeys(t, &c.main, "b", "a")
	wantKeys(t, &c.probation, "d", "c")
	checkClock(t, c)
}

// TestClockSecondChanceRotation: in main, a touched cold-end entry has
// its bit cleared and rotates to the hot end instead of being evicted;
// the next untouched entry goes. The cleared bit buys exactly one
// pass.
func TestClockSecondChanceRotation(t *testing.T) {
	c := New[string, int](5) // probation holds 2, main 3
	// Enter main untouched through the ghosts: each key is put again
	// after newer keys pushed it out of probation.
	put(t, c, "a", 1)
	put(t, c, "b", 2)
	put(t, c, "c", 3, 1)
	put(t, c, "a", 1)
	put(t, c, "d", 4, 2)
	put(t, c, "b", 2)
	put(t, c, "e", 5, 3)
	put(t, c, "c", 3)
	wantKeys(t, &c.main, "c", "b", "a")
	wantKeys(t, &c.probation, "e", "d")

	touch(t, c, "a")
	put(t, c, "f", 6, 4) // d leaves probation untouched
	put(t, c, "d", 4, 2) // d's ghost puts main past capacity: a rotates, b goes
	wantKeys(t, &c.main, "a", "d", "c")

	touch(t, c, "e")
	put(t, c, "g", 7, 3) // e promoted with its bit; c is the coldest untouched
	wantKeys(t, &c.main, "e", "a", "d")
	touch(t, c, "f")
	put(t, c, "h", 8, 4)
	touch(t, c, "g")
	put(t, c, "i", 9, 1) // a, once its bit is spent
	wantKeys(t, &c.main, "g", "f", "e")
	wantKeys(t, &c.probation, "i", "h")
	checkClock(t, c)
}

// TestClockPutRefresh: Put on a resident key replaces its value and
// moves it to the hot end of its own region, evicting nothing.
func TestClockPutRefresh(t *testing.T) {
	c := New[string, string](8) // probation holds 4
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
	wantKeys(t, &c.probation, "a", "d", "c", "b")

	touch(t, c, "b")
	put(t, c, "e", "e1") // b promoted
	put(t, c, "b", "b2")
	if v := c.Get("b").Value(); v != "b2" {
		t.Fatalf("refreshed value %q, want b2", v)
	}
	wantKeys(t, &c.main, "b")
	wantKeys(t, &c.probation, "e", "a", "d", "c")
	checkClock(t, c)
}

// TestClockFreshNeverVictim: when every other entry was touched since
// the last sweep, the entry just inserted still survives its own Put,
// whether it entered probation or, through its ghost, main.
func TestClockFreshNeverVictim(t *testing.T) {
	for _, capacity := range []int{1, 2, 5} {
		c := New[string, int](capacity)
		for i := range capacity {
			k := string(rune('a' + i))
			c.Put(k, i)
			touch(t, c, k) // promoted when the next key arrives
		}
		if v, ok := c.Put("new", -1); !ok || v != 0 {
			t.Fatalf("capacity %d: evicted %v, %v; want the coldest old entry (0)", capacity, v, ok)
		}
		if c.Get("new") == nil {
			t.Fatalf("capacity %d: the fresh entry evicted itself", capacity)
		}
		checkClock(t, c)
	}

	// Capacity 1: a ghost puts the fresh entry in main beside the
	// probation entry, which must go.
	c := New[string, int](1)
	c.Put("x", 1)
	c.Put("y", 2) // x dropped, ghost left
	touch(t, c, "y")
	if v, ok := c.Put("x", 1); !ok || v != 2 || c.Get("x") == nil {
		t.Fatalf("capacity 1 ghost entry: evicted %v, %v; want y (2) and x resident", v, ok)
	}
	checkClock(t, c)

	// Capacity 2: the fresh entry enters main past every touched entry.
	c = New[string, int](2)
	c.Put("a", 0)
	touch(t, c, "a")
	c.Put("b", 1) // a promoted
	c.Put("c", 2) // b dropped, ghost left
	if v, ok := c.Put("b", 1); !ok || v != 0 || c.Get("b") == nil {
		t.Fatalf("capacity 2 ghost entry: evicted %v, %v; want a (0) and b resident", v, ok)
	}
	checkClock(t, c)
}

// TestClockDeleteClearLenAll covers the bookkeeping surface.
func TestClockDeleteClearLenAll(t *testing.T) {
	c := New[string, int](8) // probation holds 4
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
	wantKeys(t, &c.probation, "c", "a")

	touch(t, c, "a")
	for _, k := range []string{"d", "e", "f"} {
		c.Put(k, 0) // the third overflows probation and promotes a
	}
	wantKeys(t, &c.main, "a")
	if v, ok := c.Delete("a"); !ok || v != 0 {
		t.Fatalf("Delete(a) from main = %v, %v; want 0, true", v, ok)
	}
	wantKeys[int](t, &c.main)
	put(t, c, "g", 0, 2) // c dropped, ghost left
	checkClock(t, c)

	// Clear also forgets the ghosts: c re-enters probation, not main.
	c.Clear()
	if c.Len() != 0 || c.Get("d") != nil {
		t.Fatal("Clear left entries resident")
	}
	wantKeys[int](t, &c.probation)
	c.Put("c", 3)
	wantKeys(t, &c.probation, "c")
	wantKeys[int](t, &c.main)
	checkClock(t, c)

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
		c.Get([4]int{i}).Touch()
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

// missKey has the shape of the service's memo key: a fingerprint plus
// scalar options, floats included.
type missKey struct {
	fp    [32]byte
	eps   float64
	iters int
	exact bool
}

// TestClockPutMissAllocs locks the miss path of a full cache at the
// one Entry a new key needs: hashing keys for the ghosts, dropping
// from probation, promoting to main, main's sweep and ghost re-entry
// allocate nothing more.
func TestClockPutMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation makes alloc counts meaningless")
	}
	const capacity = 64 // probation holds 32
	key := func(n int) missKey {
		return missKey{fp: [32]byte{byte(n), byte(n >> 8), byte(n >> 16)}, eps: 1e-9, iters: n}
	}
	c := New[missKey, *int](capacity)
	x := 7
	n, ghostHits := 0, 0
	put := func() {
		n++
		k := key(n)
		if n%4 == 1 {
			// Put 50 Puts ago, odd so never touched, and pushed out of
			// probation by the ~37 new keys since: a ghost hit.
			k = key(n - 50)
		}
		if _, ok := c.ghosts.at[maphash.Comparable(c.seed, k)]; ok {
			ghostHits++
		}
		c.Put(k, &x)
		if n%2 == 0 {
			c.Get(k).Touch() // promoted when it leaves probation
		}
	}
	for c.Len() < capacity || n < 4*capacity {
		put()
	}
	allocs := testing.AllocsPerRun(1000, put)
	if allocs != 1 {
		t.Errorf("a miss Put allocates %.2f/op, want 1 (its Entry)", allocs)
	}
	if c.Len() != capacity || c.main.len == 0 || len(c.ghosts.at) == 0 || ghostHits == 0 {
		t.Fatalf("Len %d, main %d, ghosts %d, ghost hits %d: the miss mix did not fill main, drop keys and re-admit them",
			c.Len(), c.main.len, len(c.ghosts.at), ghostHits)
	}
	checkClock(t, c)
}

// TestClockConcurrentTouchEviction runs readers that touch their
// entries after releasing the caller's lock against writers whose Puts
// promote, sweep and evict under it. Its real assertions fire under
// -race: the touched bit is the only state shared outside the lock.
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
	checkClock(t, c)
	for _, l := range []*list[int, int]{&c.probation, &c.main} {
		for e := l.root.colder; e != &l.root; e = e.colder {
			if e.value != e.key*e.key {
				t.Fatalf("key %d holds %d", e.key, e.value)
			}
		}
	}
	if c.Len() == 0 {
		t.Fatal("nothing resident after the run")
	}
}
