package httpd

import (
	"crypto/rand"
	"encoding/hex"
	"sync"

	"hsched/internal/cache"
	"hsched/internal/model"
	"hsched/internal/service"
)

// session binds one HTTP client to a service.Session: the probe handle
// that pins each successful result as the seed of the next probe, plus
// the last accepted system that session-scoped edits apply against.
// The mutex serialises probes — chained-edit determinism (and the
// edit base itself) only makes sense for sequential probes, so
// concurrent requests on one token queue rather than race.
type session struct {
	token string
	probe *service.Session

	mu sync.Mutex
	// base is the last system a successful probe analysed; nil until
	// the first full-spec probe. Edits apply against it and advance it
	// only when their analysis succeeds.
	base *model.System
	// opt is the session's default options block, set at creation;
	// per-probe options override it field-by-field under the usual
	// fallback rules.
	opt OptionsSpec
}

// sessions is the server's token registry: a cache.Clock capped at
// MaxSessions so abandoned tokens cannot pin seeds (each holds a full
// replay history) forever. A lookup touches its session, so a session
// that has served a request leaves probation for the main region. A
// session never used is dropped from probation only once the registry
// is full; until then create puts it back, into main.
type sessions struct {
	mu      sync.Mutex
	byToken *cache.Clock[string, *session]
	max     int

	created int64
	evicted int64
}

func newSessions(cap int) *sessions {
	return &sessions{byToken: cache.New[string, *session](cap), max: cap}
}

// create binds a new session and returns it. When the registry is
// full it evicts one session, dropping its seed: the oldest never-used
// one leaving probation, or else one not looked up since the last
// sweep.
func (r *sessions) create(svc *service.Service, opt OptionsSpec) *session {
	var buf [16]byte
	rand.Read(buf[:]) // never returns an error since Go 1.24
	s := &session{
		token: hex.EncodeToString(buf[:]),
		probe: svc.NewSession(),
		opt:   opt,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	victim, ok := r.byToken.Put(s.token, s)
	if ok && r.byToken.Len() < r.max {
		// A never-used session left probation while the registry has
		// room. Put it back: its ghost was just written, so it enters main
		// untouched, where a full registry's sweep still takes it
		// before any session looked up since the last sweep.
		r.byToken.Put(victim.token, victim)
		ok = false
	}
	if ok {
		victim.probe.Drop()
		r.evicted++
	}
	r.created++
	return s
}

// lookup returns the session for token, touching it, or nil.
func (r *sessions) lookup(token string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.byToken.Get(token)
	if e == nil {
		return nil
	}
	e.Touch()
	return e.Value()
}

// remove deletes the session for token, dropping its pinned seed.
// It reports whether the token existed.
func (r *sessions) remove(token string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byToken.Delete(token)
	if ok {
		s.probe.Drop()
	}
	return ok
}

// counters snapshots the registry for /v1/stats.
func (r *sessions) counters() SessionCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SessionCounters{Open: r.byToken.Len(), Created: r.created, Evicted: r.evicted}
}
