package service

import "hsched/internal/model"

// Intern returns the canonical resident *model.System equal to sys,
// plus its fingerprint: the first caller's copy becomes the resident
// and every later caller with an equal system gets that same pointer,
// so duplicate decoded systems collapse to one copy. Residents are
// shared across requests — callers must treat both the argument (once
// interned) and the result as read-only. Code that mutates systems in
// place must keep its private copy and skip interning.
//
// The pool lives in the stripes beside the memo, each slice a
// cache.Clock of ceil(Capacity/Shards) entries. Eviction only
// drops the pool's reference: a resident still held by a caller or a
// memoised Result simply stops being shared with future requests.
func (s *Service) Intern(sys *model.System) (*model.System, model.Fingerprint) {
	fp := sys.Fingerprint()
	return s.InternFingerprinted(fp, sys), fp
}

// InternFingerprinted is Intern for callers that already hold the
// system's fingerprint (typically the SHA-256 of its canonical wire
// bytes) and must not pay a second encoding pass. fp must be
// sys.Fingerprint(); an inconsistent pair poisons the pool for that
// fingerprint.
//
// A concurrent duplicate that lost the race to install still gets the
// winner's pointer (and counts as a hit), so equal fingerprints always
// yield one pointer.
func (s *Service) InternFingerprinted(fp model.Fingerprint, sys *model.System) *model.System {
	st := s.stripeFor(fp)
	st.mu.Lock()
	if e := st.intern.Get(fp); e != nil {
		res := e.Value()
		st.mu.Unlock()
		e.Touch()
		s.ctr.internHits.Add(1)
		return res
	}
	_, evicted := st.intern.Put(fp, sys)
	st.mu.Unlock()
	s.ctr.internMisses.Add(1)
	if !evicted {
		s.ctr.resident.Add(1)
	}
	return sys
}

// Interned returns the resident system for fp, if one exists — the
// zero-decode path: a server holding the fingerprint of a binary
// request body (the SHA-256 of the wire bytes) can recover the decoded
// system without touching the bytes again. A miss is not counted; the
// caller decodes and calls InternFingerprinted, which counts the miss,
// so each request increments exactly one intern counter.
func (s *Service) Interned(fp model.Fingerprint) (*model.System, bool) {
	st := s.stripeFor(fp)
	st.mu.Lock()
	e := st.intern.Get(fp)
	if e == nil {
		st.mu.Unlock()
		return nil, false
	}
	sys := e.Value()
	st.mu.Unlock()
	e.Touch()
	s.ctr.internHits.Add(1)
	return sys, true
}
