package core

// The container/list FIFO the intrusive overflow list replaced, kept as the
// reference the twin test replays beside it.

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// listFIFO is the overflow FIFO as a container/list of entries, with the
// element of each member kept beside it (the old entry.overElem).
type listFIFO struct {
	l     *list.List
	elems map[*entry]*list.Element
	bytes int
}

func newListFIFO() *listFIFO {
	return &listFIFO{l: list.New(), elems: map[*entry]*list.Element{}}
}

func (q *listFIFO) pushBack(e *entry, n int) {
	q.elems[e] = q.l.PushBack(e)
	q.bytes += n
}

func (q *listFIFO) remove(e *entry, n int) {
	if el := q.elems[e]; el != nil {
		q.l.Remove(el)
		delete(q.elems, e)
	}
	q.bytes -= n
}

// trim drops from the front while over bound and returns the dropped
// entries in drop order.
func (q *listFIFO) trim(bound int) []*entry {
	var dropped []*entry
	for q.bytes > bound && q.l.Len() > 0 {
		e := q.l.Front().Value.(*entry)
		q.remove(e, len(e.data))
		dropped = append(dropped, e)
	}
	return dropped
}

// order lists the intrusive FIFO front to back, checking its back links.
func (q *overflowFIFO) order() ([]*entry, error) {
	var out []*entry
	var prev *entry
	for e := q.head; e != nil; e = e.overNext {
		if e.overPrev != prev {
			return nil, fmt.Errorf("entry %v links back to %v, want %v", e.key, e.overPrev, prev)
		}
		out = append(out, e)
		prev = e
	}
	if q.tail != prev {
		return nil, fmt.Errorf("tail is %v, last entry %v", q.tail, prev)
	}
	return out, nil
}

// TestOverflowFIFOMatchesList replays migrations (a batch of entries pushed
// to the back), repromotions and deletes (an entry removed from anywhere)
// and trimOverflow against the container/list FIFO: both must hold the same
// entries in the same order after every step, and the trim must drop the
// same entries in the same order.
func TestOverflowFIFOMatchesList(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := newStack(t, smallCoreConfig(), 64, 1<<20)
		p := s.p
		tbl := p.table(s.f.Inode().Ino)
		ref := newListFIFO()
		rng := rand.New(rand.NewSource(seed))
		var members []*entry // the FIFO's entries, in no particular order
		remove := func(i int) *entry {
			e := members[i]
			members[i] = members[len(members)-1]
			members = members[:len(members)-1]
			ref.remove(e, len(e.data))
			p.removeOverflow(e)
			e.state = stateGhost
			return e
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // migration: a slab's live items, in its order
				for k := rng.Intn(6); k >= 0; k-- {
					e := p.entries.alloc()
					e.key, e.state, e.table = rangeKey{off: int64(step*8 + k), n: 64}, stateOverflow, tbl
					e.data = make([]byte, 64<<rng.Intn(5))
					p.overflow.pushBack(e)
					p.overBytes += len(e.data)
					ref.pushBack(e, len(e.data))
					members = append(members, e)
				}
			case op < 6 && len(members) > 0: // repromotion
				remove(rng.Intn(len(members)))
			case op < 8 && len(members) > 0: // delete
				p.entries.release(remove(rng.Intn(len(members))))
			default: // trimOverflow at a random bound
				p.cfg.OverflowMaxBytes = rng.Intn(16 << 10)
				want := ref.trim(p.cfg.OverflowMaxBytes)
				before, err := p.overflow.order()
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				p.trimOverflow()
				var got []*entry
				for _, e := range before {
					if e.state == stateGhost {
						got = append(got, e)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: trim dropped %d entries, the list FIFO %d", seed, step, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: drop %d is %v, the list FIFO dropped %v", seed, step, i, got[i].key, want[i].key)
					}
				}
				kept := members[:0]
				for _, e := range members {
					if e.state == stateOverflow {
						kept = append(kept, e)
					}
				}
				members = kept
			}
			order, err := p.overflow.order()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if len(order) != ref.l.Len() || p.overBytes != ref.bytes {
				t.Fatalf("seed %d step %d: %d entries and %d bytes, the list FIFO %d and %d",
					seed, step, len(order), p.overBytes, ref.l.Len(), ref.bytes)
			}
			el := ref.l.Front()
			for i, e := range order {
				if el.Value.(*entry) != e {
					t.Fatalf("seed %d step %d: position %d holds %v, the list FIFO %v", seed, step, i, e.key, el.Value.(*entry).key)
				}
				el = el.Next()
			}
		}
	}
}
