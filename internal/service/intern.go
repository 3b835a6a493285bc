package service

import (
	"sync"

	"hsched/internal/cache"
	"hsched/internal/model"
)

// internPool is the fingerprint-keyed pool of canonical resident
// systems: every decoded copy of one system collapses to a single
// *model.System shared by the memo, delta-seed and session paths, so a
// million clients posting the same platform pin one copy instead of a
// million. Residents are shared and therefore read-only by contract —
// only callers that never mutate their systems (the HTTP decode paths)
// may intern; search loops that edit systems in place (sched.Assign,
// design.Minimize) must not.
//
// The pool is striped by fingerprint like the verdict memo (the binary
// wire path takes an intern lookup and a memo lookup per request, and
// both must scale), and each stripe is the same cache.Clock: a hit
// touches the entry after the lookup mutex is released, so the mutex
// is held for a map read only, and counters are padded atomics.
// Residents carry no cost, so eviction takes the first untouched
// entry from the cold end. Each stripe is bounded at
// ceil(capacity/stripes) entries; eviction only drops the pool's
// reference, so a resident still held by a caller or a memoised
// Result simply stops being shared with future requests.
type internPool struct {
	stripes []internStripe

	hits     counter
	misses   counter
	resident counter // gauge: entries currently pooled, all stripes
}

type internStripe struct {
	mu   sync.Mutex
	pool *cache.Clock[model.Fingerprint, *model.System]

	_ [64]byte // keep neighbouring stripes' mutexes off one cache line
}

func newInternPool(capacity, stripes int) *internPool {
	if capacity <= 0 {
		return nil
	}
	p := &internPool{stripes: make([]internStripe, stripes)}
	for i := range p.stripes {
		p.stripes[i].pool = cache.New[model.Fingerprint, *model.System](perStripe(capacity, stripes))
	}
	return p
}

func (p *internPool) stripeFor(fp model.Fingerprint) *internStripe {
	return &p.stripes[fp.Shard(len(p.stripes))]
}

// lookup returns the resident system for fp, if any, counting a hit.
// A miss counts nothing: the caller will decode and come back through
// intern, which does the miss accounting — so each request is counted
// exactly once however it splits the lookup.
func (p *internPool) lookup(fp model.Fingerprint) (*model.System, bool) {
	st := p.stripeFor(fp)
	st.mu.Lock()
	e := st.pool.Get(fp)
	if e == nil {
		st.mu.Unlock()
		return nil, false
	}
	sys := e.Value()
	st.mu.Unlock()
	e.Touch()
	p.hits.Add(1)
	return sys, true
}

// intern returns the canonical resident system for fp, installing sys
// as the resident if none exists. A concurrent duplicate that lost the
// race to install still gets the winner's pointer (and counts as a
// hit), so equal fingerprints always yield one pointer.
func (p *internPool) intern(fp model.Fingerprint, sys *model.System) *model.System {
	st := p.stripeFor(fp)
	st.mu.Lock()
	if e := st.pool.Get(fp); e != nil {
		res := e.Value()
		st.mu.Unlock()
		e.Touch()
		p.hits.Add(1)
		return res
	}
	_, evicted := st.pool.Put(fp, sys, 0)
	st.mu.Unlock()
	p.misses.Add(1)
	if !evicted {
		p.resident.Add(1)
	}
	return sys
}

// snapshot reads the pool counters: hits, misses, and the resident
// count gauge.
func (p *internPool) snapshot() (hits, misses, resident int64) {
	return p.hits.Load(), p.misses.Load(), p.resident.Load()
}

func (p *internPool) reset() {
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		dropped := int64(st.pool.Len())
		st.pool.Clear()
		st.mu.Unlock()
		p.resident.Add(-dropped)
	}
}

// Intern returns the canonical resident *model.System equal to sys,
// plus its fingerprint: the first caller's copy becomes the resident
// and every later caller with an equal system gets that same pointer,
// so duplicate decoded systems collapse to one copy. Residents are
// shared across requests — callers must treat both the argument (once
// interned) and the result as read-only. Code that mutates systems in
// place must keep its private copy and skip interning.
//
// With interning disabled (Options.InternCapacity < 0) sys is returned
// unchanged and nothing is counted.
func (s *Service) Intern(sys *model.System) (*model.System, model.Fingerprint) {
	fp := sys.Fingerprint()
	return s.InternFingerprinted(fp, sys), fp
}

// InternFingerprinted is Intern for callers that already hold the
// system's fingerprint (typically the SHA-256 of its canonical wire
// bytes) and must not pay a second encoding pass. fp must be
// sys.Fingerprint(); an inconsistent pair poisons the pool for that
// fingerprint.
func (s *Service) InternFingerprinted(fp model.Fingerprint, sys *model.System) *model.System {
	if s.intern == nil {
		return sys
	}
	return s.intern.intern(fp, sys)
}

// Interned returns the resident system for fp, if one exists — the
// zero-decode path: a server holding the fingerprint of a binary
// request body (the SHA-256 of the wire bytes) can recover the decoded
// system without touching the bytes again. A miss is not counted; the
// caller decodes and calls InternFingerprinted, which counts the miss,
// so each request increments exactly one intern counter.
func (s *Service) Interned(fp model.Fingerprint) (*model.System, bool) {
	if s.intern == nil {
		return nil, false
	}
	return s.intern.lookup(fp)
}
