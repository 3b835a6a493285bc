// Package cache is the one bounded map of the analysis service and
// its HTTP transport: a CLOCK cache behind the verdict memo, the
// intern pool, the parse memo and the session registry.
//
// Entries form a list in insertion order. A hit never reorders it; the
// caller sets the entry's touched bit instead. Scanning from the cold
// end, the evictor clears a touched entry's bit and rotates it to the
// hot end (its second chance), and evicts the first untouched entry it
// meets. With no touches this is FIFO.
//
// A Clock holds no lock of its own: every method, and Entry.Value,
// runs under the caller's mutex; only Entry.Touch may run outside it.
package cache

import "sync/atomic"

// Clock is a bounded map from K to V with CLOCK eviction; see the
// package doc. The zero value is not usable; construct with New.
type Clock[K comparable, V any] struct {
	capacity int
	index    map[K]*Entry[K, V]
	// root is the sentinel of the circular list: root.hotter is the
	// cold end, root.colder the hot end.
	root Entry[K, V]
}

// Entry is one resident key/value pair. Callers hold it only between
// a Get and the matching Touch.
type Entry[K comparable, V any] struct {
	key            K
	value          V
	touched        atomic.Bool // the CLOCK bit; written outside the caller's lock
	colder, hotter *Entry[K, V]
}

// New returns an empty cache holding at most capacity entries. A
// capacity below 1 holds nothing: every Get misses and Put stores
// nothing.
func New[K comparable, V any](capacity int) *Clock[K, V] {
	c := &Clock[K, V]{capacity: capacity, index: make(map[K]*Entry[K, V])}
	c.root.colder, c.root.hotter = &c.root, &c.root
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

// Touch marks the entry used since the last sweep, so the evictor
// passes over it once. It needs no lock; touching an entry that has
// since been evicted is harmless.
func (e *Entry[K, V]) Touch() { e.touched.Store(true) }

// Put stores v under k and returns the value it evicted to stay
// within capacity, if any. A new key enters at the hot end and is
// never its own victim; an existing key has its value replaced and
// moves to the hot end.
func (c *Clock[K, V]) Put(k K, v V) (evicted V, ok bool) {
	if c.capacity < 1 {
		return evicted, false
	}
	if e := c.index[k]; e != nil {
		e.value = v
		c.unlink(e)
		c.pushHot(e)
		return evicted, false
	}
	e := &Entry[K, V]{key: k, value: v}
	c.index[k] = e
	c.pushHot(e)
	if len(c.index) <= c.capacity {
		return evicted, false
	}
	victim := c.victim(e)
	c.unlink(victim)
	delete(c.index, victim.key)
	return victim.value, true
}

// victim runs one eviction sweep and returns the entry to evict, never
// fresh (the entry the triggering Put just pushed to the hot end). The
// sweep visits each older entry at most once, cold end first, so a
// Touch racing it cannot make it spin: a touched entry has its bit
// cleared and rotates past fresh, and the first untouched one is the
// victim. If every older entry was touched, they now follow fresh in
// their old order and the coldest of them goes.
func (c *Clock[K, V]) victim(fresh *Entry[K, V]) *Entry[K, V] {
	e := c.root.hotter
	for e != fresh {
		next := e.hotter
		if !e.touched.CompareAndSwap(true, false) {
			return e
		}
		c.unlink(e)
		c.pushHot(e)
		e = next
	}
	return fresh.hotter
}

// Delete removes k and returns the value it held, if any.
func (c *Clock[K, V]) Delete(k K) (v V, ok bool) {
	e := c.index[k]
	if e == nil {
		return v, false
	}
	c.unlink(e)
	delete(c.index, k)
	return e.value, true
}

// Len returns the number of resident entries.
func (c *Clock[K, V]) Len() int { return len(c.index) }

// Clear removes every entry.
func (c *Clock[K, V]) Clear() {
	clear(c.index)
	c.root.colder, c.root.hotter = &c.root, &c.root
}

func (c *Clock[K, V]) pushHot(e *Entry[K, V]) {
	e.colder, e.hotter = c.root.colder, &c.root
	c.root.colder.hotter = e
	c.root.colder = e
}

func (c *Clock[K, V]) unlink(e *Entry[K, V]) {
	e.colder.hotter = e.hotter
	e.hotter.colder = e.colder
	e.colder, e.hotter = nil, nil
}
