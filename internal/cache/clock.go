// Package cache is the one bounded map of the analysis service and
// its HTTP transport: a segmented CLOCK cache behind the verdict memo,
// the intern pool, the parse memo and the session registry.
//
// Every new key enters probation, a FIFO that never holds more than
// its share of capacity, whether or not the cache is full: a tenth of
// capacity, but never less than half of it up to 256 entries. When
// probation overflows, its cold entry leaves it: an entry touched
// since it entered moves to the main region, and an untouched one is
// dropped, leaving its key's 64-bit hash behind as a ghost. The ghosts
// are the last capacity hashes dropped; a new key whose ghost is
// present enters main directly, so a key reused at a distance longer
// than probation still gets in, while keys seen once never reach main.
// This is S3-FIFO (Yang et al., SOSP 2023) with a CLOCK main region.
// A ghost matches on all 64 bits, so which keys get in depends only on
// the sequence of calls, short of two keys sharing a hash.
//
// Main is a list in insertion order. A hit never reorders it; the
// caller sets the entry's touched bit instead. When the cache holds
// one entry past capacity, the evictor scans main from the cold end,
// clears a touched entry's bit and rotates it to the hot end (its
// second chance), and evicts the first untouched entry it meets. An
// entry promoted from probation keeps its bit, so the touch that
// promoted it also buys it one pass.
//
// A Clock holds no lock of its own: every method, and Entry.Value,
// runs under the caller's mutex; only Entry.Touch may run outside it.
package cache

import (
	"hash/maphash"
	"sync/atomic"
)

// Probation holds capacity/probationShare entries, raised to
// min(capacity/2, probationFloor) where that is more, and at least 1.
// The floor keeps a small cache's probation long enough for a working
// set of a few hundred keys: a 512-entry cache holds 256 new keys on
// probation, not 51, so up to 256 keys sent once and then again all
// hit the second time.
const (
	probationShare = 10
	probationFloor = 256
)

// Clock is a bounded map from K to V with segmented CLOCK eviction;
// see the package doc. The zero value is not usable; construct with
// New.
type Clock[K comparable, V any] struct {
	capacity     int
	probationCap int
	index        map[K]*Entry[K, V]
	probation    list[K, V]
	main         list[K, V]
	ghosts       ghosts
	seed         maphash.Seed
}

// Entry is one resident key/value pair. Callers hold it only between
// a Get and the matching Touch.
type Entry[K comparable, V any] struct {
	key            K
	value          V
	touched        atomic.Bool // the CLOCK bit; written outside the caller's lock
	inMain         bool        // in the main region, not probation
	colder, hotter *Entry[K, V]
}

// list is one region: a circular list around a sentinel whose hotter
// is the cold end and whose colder is the hot end.
type list[K comparable, V any] struct {
	root Entry[K, V]
	len  int
}

// ghosts is a FIFO of the hashes of the last len(ring) keys dropped
// from probation.
type ghosts struct {
	ring  []uint64          // ring[n%len(ring)] is drop n's hash
	at    map[uint64]uint64 // hash → its latest drop, unless taken or past the window
	drops uint64
}

// New returns an empty cache holding at most capacity entries. A
// capacity below 1 holds nothing: every Get misses and Put stores
// nothing.
func New[K comparable, V any](capacity int) *Clock[K, V] {
	c := &Clock[K, V]{
		capacity:     capacity,
		probationCap: max(1, capacity/probationShare, min(capacity/2, probationFloor)),
		index:        make(map[K]*Entry[K, V]),
		ghosts: ghosts{
			ring: make([]uint64, max(0, capacity)),
			at:   make(map[uint64]uint64),
		},
		seed: maphash.MakeSeed(),
	}
	c.probation.init()
	c.main.init()
	return c
}

// Get returns the entry stored under k, or nil. It does not mark the
// entry used: the caller reads Value under its lock and calls Touch,
// which may come after the lock is released.
func (c *Clock[K, V]) Get(k K) *Entry[K, V] {
	return c.index[k]
}

// Value returns the entry's value. Read it under the caller's lock: a
// Put on the same key replaces it.
func (e *Entry[K, V]) Value() V { return e.value }

// Touch marks the entry used since the last sweep, so probation
// promotes it and main's evictor passes over it once. It needs no
// lock; touching an entry that has since been evicted is harmless.
func (e *Entry[K, V]) Touch() { e.touched.Store(true) }

// Put stores v under k and returns the value it evicted, if any: an
// untouched entry leaving probation, or main's victim when the cache
// is past capacity. A new key is never its own victim; it enters main
// if its ghost is present, else probation. An existing key has its
// value replaced and moves to the hot end of its region.
func (c *Clock[K, V]) Put(k K, v V) (evicted V, ok bool) {
	if c.capacity < 1 {
		return evicted, false
	}
	if e := c.index[k]; e != nil {
		e.value = v
		l := c.listOf(e)
		l.unlink(e)
		l.pushHot(e)
		return evicted, false
	}
	e := &Entry[K, V]{key: k, value: v}
	c.index[k] = e
	if c.ghosts.take(maphash.Comparable(c.seed, k)) {
		e.inMain = true
		c.main.pushHot(e)
	} else {
		c.probation.pushHot(e)
	}
	var victim *Entry[K, V]
	if c.probation.len > c.probationCap {
		victim = c.leaveProbation()
	}
	if victim == nil && len(c.index) > c.capacity {
		if c.main.len == 1 && e.inMain {
			// Only at capacity 1: main holds no entry but e, so the
			// probation entry goes.
			victim = c.probation.root.hotter
		} else {
			victim = c.sweep(e)
		}
	}
	if victim == nil {
		return evicted, false
	}
	c.listOf(victim).unlink(victim)
	delete(c.index, victim.key)
	if !victim.inMain {
		c.ghosts.add(maphash.Comparable(c.seed, victim.key))
	}
	return victim.value, true
}

// leaveProbation takes probation's cold entry, which is never the one
// a Put just inserted while probation overflows. A touched entry moves
// to main's hot end with its bit, and leaveProbation returns nil; an
// untouched one is returned for Put to evict.
func (c *Clock[K, V]) leaveProbation() *Entry[K, V] {
	e := c.probation.root.hotter
	if !e.touched.Load() {
		return e
	}
	c.probation.unlink(e)
	e.inMain = true
	c.main.pushHot(e)
	return nil
}

// sweep runs one eviction sweep over main and returns the entry to
// evict, never fresh (the entry the triggering Put just inserted). The
// sweep visits each main entry at most once, cold end first, so a
// Touch racing it cannot make it spin: a touched entry has its bit
// cleared and rotates to the hot end, and the first untouched one is
// the victim. If every entry but fresh was touched, they are back in
// their old order and the coldest of them goes.
func (c *Clock[K, V]) sweep(fresh *Entry[K, V]) *Entry[K, V] {
	var coldest *Entry[K, V]
	e := c.main.root.hotter
	for range c.main.len {
		next := e.hotter
		if e != fresh {
			if !e.touched.CompareAndSwap(true, false) {
				return e
			}
			if coldest == nil {
				coldest = e
			}
		}
		c.main.unlink(e)
		c.main.pushHot(e)
		e = next
	}
	return coldest
}

// Delete removes k and returns the value it held, if any.
func (c *Clock[K, V]) Delete(k K) (v V, ok bool) {
	e := c.index[k]
	if e == nil {
		return v, false
	}
	c.listOf(e).unlink(e)
	delete(c.index, k)
	return e.value, true
}

// Len returns the number of resident entries.
func (c *Clock[K, V]) Len() int { return len(c.index) }

// Clear removes every entry and forgets every ghost, so the cache
// admits like a new one.
func (c *Clock[K, V]) Clear() {
	clear(c.index)
	c.probation.init()
	c.main.init()
	clear(c.ghosts.at)
	c.ghosts.drops = 0
}

func (c *Clock[K, V]) listOf(e *Entry[K, V]) *list[K, V] {
	if e.inMain {
		return &c.main
	}
	return &c.probation
}

// add records the drop of a key with hash h, forgetting the drop that
// leaves the window.
func (g *ghosts) add(h uint64) {
	n := uint64(len(g.ring))
	slot := &g.ring[g.drops%n]
	if at, ok := g.at[*slot]; ok && at+n == g.drops {
		delete(g.at, *slot)
	}
	*slot = h
	g.at[h] = g.drops
	g.drops++
}

// take reports whether a ghost with hash h is present, and forgets it.
func (g *ghosts) take(h uint64) bool {
	if _, ok := g.at[h]; !ok {
		return false
	}
	delete(g.at, h)
	return true
}

func (l *list[K, V]) init() {
	l.root.colder, l.root.hotter = &l.root, &l.root
	l.len = 0
}

func (l *list[K, V]) pushHot(e *Entry[K, V]) {
	e.colder, e.hotter = l.root.colder, &l.root
	l.root.colder.hotter = e
	l.root.colder = e
	l.len++
}

func (l *list[K, V]) unlink(e *Entry[K, V]) {
	e.colder.hotter = e.hotter
	e.hotter.colder = e.colder
	e.colder, e.hotter = nil, nil
	l.len--
}
