package index

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
)

// sortedMap is the ordered in-memory map behind the LSM memtable and the
// hash engine: a Go map from each key to its position in an append-only
// slice of entries, plus a view of those positions in key order that is
// built only when something needs order. Set, get and delete each cost a
// hash probe. A memtable flush sorts the view once; a scan sorts only the
// entries added since the last sort and merges them into the sorted part.
// A delete of a sorted entry drops the view, to be rebuilt by the next scan.
//
// Every buffer survives reset, so once a memtable has been filled and
// flushed the next one fills without allocating. Deleted entries (the hash
// engine deletes; the memtable writes tombstones instead) are compacted
// away once they outnumber the live ones, so delete churn does not grow
// the slice.
type sortedMap struct {
	idx    map[string]int32 // key -> position in ents
	ents   []mapEntry       // in insertion order
	order  []int32          // the positions of ents[:sorted], in key order
	sorted int
	items  []sortItem // sortFresh's buffers, kept for reuse
	tmp    []sortItem
}

type mapEntry struct {
	key       string
	loc       Loc
	tombstone bool
	dead      bool
}

// sortItem is a position with eight bytes of its key as one integer.
type sortItem struct {
	word uint64
	pos  int32
}

func newSortedMap() *sortedMap {
	return &sortedMap{idx: make(map[string]int32)}
}

func (m *sortedMap) len() int { return len(m.idx) }

// set maps key to (loc, tombstone), updating in place when key is present.
func (m *sortedMap) set(key string, loc Loc, tombstone bool) {
	if p, ok := m.idx[key]; ok {
		e := &m.ents[p]
		e.loc, e.tombstone = loc, tombstone
		return
	}
	m.idx[key] = int32(len(m.ents))
	m.ents = append(m.ents, mapEntry{key: key, loc: loc, tombstone: tombstone})
}

// get returns key's entry, if present.
func (m *sortedMap) get(key string) (Loc, bool, bool) {
	p, ok := m.idx[key]
	if !ok {
		return Loc{}, false, false
	}
	e := &m.ents[p]
	return e.loc, e.tombstone, true
}

// delete removes key; reports false if it was absent.
func (m *sortedMap) delete(key string) bool {
	p, ok := m.idx[key]
	if !ok {
		return false
	}
	delete(m.idx, key)
	m.ents[p] = mapEntry{dead: true}
	if int(p) < m.sorted {
		m.order, m.sorted = m.order[:0], 0
	}
	if dead := len(m.ents) - len(m.idx); dead > len(m.idx) {
		m.compact()
	}
	return true
}

// compact drops the deleted entries, keeping the live ones in insertion
// order, and the view, whose positions move. It follows at least as many
// deletes as there are live keys, which pay for it and the sort after it.
func (m *sortedMap) compact() {
	live := 0
	for _, e := range m.ents {
		if !e.dead {
			m.ents[live] = e
			m.idx[e.key] = int32(live)
			live++
		}
	}
	clear(m.ents[live:])
	m.ents = m.ents[:live]
	m.order, m.sorted = m.order[:0], 0
}

// reset empties the map for reuse, keeping its buffers.
func (m *sortedMap) reset() {
	clear(m.idx)
	clear(m.ents)
	m.ents = m.ents[:0]
	m.order, m.sorted = m.order[:0], 0
}

// ascend returns the positions in ents of the live keys >= start, in key
// order. The slice is the map's own, valid until the next change to it.
func (m *sortedMap) ascend(start string) []int32 {
	if m.sorted < len(m.ents) {
		m.merge()
	}
	i := sort.Search(len(m.order), func(i int) bool { return m.ents[m.order[i]].key >= start })
	return m.order[i:]
}

// merge sorts the entries added since the last merge and merges them into
// order from the back, so the sorted part moves up in place. A live key
// has one position, so the two share no key.
func (m *sortedMap) merge() {
	fresh := m.sortFresh()
	i, j := len(m.order)-1, len(fresh)-1
	m.order = slices.Grow(m.order, len(fresh))[:len(m.order)+len(fresh)]
	for k := len(m.order) - 1; j >= 0; k-- {
		if i >= 0 && m.ents[m.order[i]].key > m.ents[fresh[j].pos].key {
			m.order[k] = m.order[i]
			i--
		} else {
			m.order[k] = fresh[j].pos
			j--
		}
	}
	m.sorted = len(m.ents)
}

// sortFresh returns the live entries of ents[sorted:] in key order. It
// radix-sorts them on the eight bytes that follow the prefix their keys
// all share, zero-padded past a key's end, and then orders each run of
// equal words by whole key: where those bytes tell keys apart, it compares
// no key at all.
func (m *sortedMap) sortFresh() []sortItem {
	items, first, shared := m.items[:0], "", -1
	for p := m.sorted; p < len(m.ents); p++ {
		e := &m.ents[p]
		if e.dead {
			continue
		}
		if shared < 0 {
			first, shared = e.key, len(e.key)
		}
		n := 0
		for n < shared && n < len(e.key) && e.key[n] == first[n] {
			n++
		}
		shared = n
		items = append(items, sortItem{pos: int32(p)})
	}
	for i := range items {
		var b [8]byte
		copy(b[:], m.ents[items[i].pos].key[shared:])
		items[i].word = binary.BigEndian.Uint64(b[:])
	}
	tmp := slices.Grow(m.tmp[:0], len(items))[:len(items)]
	for shift := 0; shift < 64 && len(items) > 1; shift += 8 {
		var count [256]int
		for _, it := range items {
			count[byte(it.word>>shift)]++
		}
		if count[byte(items[0].word>>shift)] == len(items) {
			continue // every word has this byte: the pass would move nothing
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, it := range items {
			d := byte(it.word >> shift)
			tmp[count[d]] = it
			count[d]++
		}
		items, tmp = tmp, items
	}
	for i, j := 0, 1; i < len(items); i, j = j, j+1 {
		for j < len(items) && items[j].word == items[i].word {
			j++
		}
		slices.SortFunc(items[i:j], func(a, b sortItem) int { return strings.Compare(m.ents[a.pos].key, m.ents[b.pos].key) })
	}
	m.items, m.tmp = items, tmp
	return items
}
