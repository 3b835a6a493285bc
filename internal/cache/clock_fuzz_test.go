package cache

import (
	"hash/maphash"
	"slices"
	"testing"
)

// fuzzVal identifies the Put that stored a value, so an evicted value
// names its key.
type fuzzVal struct {
	key uint8
	seq int
}

type refEntry struct {
	key     uint8
	val     fuzzVal
	touched bool
}

// refClock is the reference model FuzzClock checks Clock against: the
// policy of the package doc on plain slices, cold end first. Ghosts are
// modelled by key: every drop in order, with whether a later Put took
// it back; a key's ghost is present when its drop is among the last
// capacity and not taken. Distinct uint8 keys sharing a 64-bit hash is
// left out.
type refClock struct {
	capacity, probationCap int
	probation, main        []refEntry
	drops                  []refDrop
}

type refDrop struct {
	key   uint8
	taken bool
}

// ghost returns k's present ghost, or nil.
func (m *refClock) ghost(k uint8) *refDrop {
	for i := max(0, len(m.drops)-m.capacity); i < len(m.drops); i++ {
		if d := &m.drops[i]; d.key == k && !d.taken {
			return d
		}
	}
	return nil
}

func (m *refClock) region(k uint8) (*[]refEntry, int) {
	for _, r := range []*[]refEntry{&m.probation, &m.main} {
		if i := slices.Index(keysOf(*r), k); i >= 0 {
			return r, i
		}
	}
	return nil, -1
}

func keysOf(r []refEntry) []uint8 {
	var out []uint8
	for _, e := range r {
		out = append(out, e.key)
	}
	return out
}

func (m *refClock) put(k uint8, v fuzzVal) (evicted fuzzVal, ok bool) {
	if r, i := m.region(k); r != nil {
		e := (*r)[i]
		e.val = v
		*r = append(slices.Delete(*r, i, i+1), e)
		return evicted, false
	}
	e := refEntry{key: k, val: v}
	if g := m.ghost(k); g != nil {
		g.taken = true
		m.main = append(m.main, e)
	} else {
		m.probation = append(m.probation, e)
	}
	var victim *refEntry
	if len(m.probation) > m.probationCap && !m.probation[0].touched {
		victim = m.dropProbation()
	} else if len(m.probation) > m.probationCap {
		m.main = append(m.main, m.probation[0])
		m.probation = m.probation[1:]
	}
	if victim == nil && len(m.probation)+len(m.main) > m.capacity {
		if len(m.main) == 1 && m.main[0].key == k {
			victim = m.dropProbation()
		} else {
			victim = m.sweep(k)
		}
	}
	if victim == nil {
		return evicted, false
	}
	return victim.val, true
}

// dropProbation removes probation's cold entry, records its drop and
// returns it.
func (m *refClock) dropProbation() *refEntry {
	e := m.probation[0]
	m.probation = m.probation[1:]
	m.drops = append(m.drops, refDrop{key: e.key})
	return &e
}

// sweep is main's second-chance pass, never choosing fresh; it removes
// and returns its victim.
func (m *refClock) sweep(fresh uint8) *refEntry {
	coldest := -1
	for range len(m.main) {
		e := m.main[0]
		m.main = m.main[1:]
		if e.key != fresh {
			if !e.touched {
				return &e
			}
			e.touched = false
			if coldest < 0 {
				coldest = int(e.key)
			}
		}
		m.main = append(m.main, e)
	}
	i := slices.IndexFunc(m.main, func(e refEntry) bool { return int(e.key) == coldest })
	e := m.main[i]
	m.main = slices.Delete(m.main, i, i+1)
	return &e
}

// sameState fails unless c's regions, bits, values and ghosts match m.
func sameState(t *testing.T, c *Clock[uint8, fuzzVal], m *refClock) {
	t.Helper()
	for _, r := range []struct {
		name string
		l    *list[uint8, fuzzVal]
		want []refEntry
	}{{"probation", &c.probation, m.probation}, {"main", &c.main, m.main}} {
		var got []refEntry
		for e := r.l.root.hotter; e != &r.l.root; e = e.hotter {
			got = append(got, refEntry{e.key, e.value, e.touched.Load()})
		}
		if !slices.Equal(got, r.want) {
			t.Fatalf("%s cold→hot %v, model %v", r.name, got, r.want)
		}
	}
	for k := range 8 {
		_, got := c.ghosts.at[maphash.Comparable(c.seed, uint8(k))]
		if want := m.ghost(uint8(k)) != nil; got != want {
			t.Fatalf("key %d's ghost present %v, model %v", k, got, want)
		}
	}
}

// FuzzClock drives Put, Get, Touch, Delete and Clear from the fuzz
// bytes against refClock and, after every step, asserts the structural
// invariants (checkClock), equal state, that Put never evicts the key
// it inserted, and that a touched entry leaving probation is promoted,
// not dropped: it is still resident afterwards, or, at capacity 1
// only, the Put's victim.
func FuzzClock(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 8, 1, 0, 3, 7, 0, 0, 4, 0, 1})
	f.Add([]byte{1, 0, 1, 1, 2, 7, 1, 2, 3, 0, 1, 0, 2, 7, 2, 0, 4, 0, 1, 14, 2, 15, 0, 0, 1})
	f.Add([]byte{2, 0, 1, 7, 1, 0, 2, 0, 3, 7, 3, 0, 4, 7, 4, 0, 5, 0, 2, 0, 1, 12, 5, 14, 3})
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 7, 1, 0, 4, 0, 5, 7, 2, 0, 6, 0, 7, 0, 1, 0, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := []int{1, 2, 3, 6}[data[0]%4]
		c := New[uint8, fuzzVal](capacity)
		m := &refClock{capacity: capacity, probationCap: c.probationCap}
		for i := 1; i+1 < len(data); i += 2 {
			op, k := data[i]%16, data[i+1]%8
			switch {
			case op < 7: // Put
				v := fuzzVal{key: k, seq: i}
				var cold *Entry[uint8, fuzzVal]
				coldTouched := false
				if c.probation.len > 0 {
					cold = c.probation.root.hotter
					coldTouched = cold.touched.Load()
				}
				got, ok := c.Put(k, v)
				want, wantOK := m.put(k, v)
				if ok != wantOK || got != want {
					t.Fatalf("Put(%d) evicted %v, %v; model %v, %v", k, got, ok, want, wantOK)
				}
				if ok && got.key == k {
					t.Fatalf("Put(%d) evicted the key it inserted", k)
				}
				if cold != nil && coldTouched && c.Get(cold.key) != cold &&
					(capacity != 1 || !ok || got.key != cold.key) {
					t.Fatalf("touched probation entry %d dropped", cold.key)
				}
			case op < 12: // Get and Touch
				e := c.Get(k)
				r, j := m.region(k)
				if (e == nil) != (r == nil) {
					t.Fatalf("Get(%d) resident %v, model %v", k, e != nil, r != nil)
				}
				if e != nil {
					e.Touch()
					(*r)[j].touched = true
				}
			case op < 14: // Get alone
				e := c.Get(k)
				r, j := m.region(k)
				if (e == nil) != (r == nil) || e != nil && e.Value() != (*r)[j].val {
					t.Fatalf("Get(%d) disagrees with the model", k)
				}
			case op == 14:
				got, ok := c.Delete(k)
				r, j := m.region(k)
				if ok != (r != nil) || ok && got != (*r)[j].val {
					t.Fatalf("Delete(%d) = %v, %v; model disagrees", k, got, ok)
				}
				if r != nil {
					*r = slices.Delete(*r, j, j+1)
				}
			default:
				c.Clear()
				m.probation, m.main, m.drops = nil, nil, nil
			}
			checkClock(t, c)
			sameState(t, c, m)
		}
	})
}
