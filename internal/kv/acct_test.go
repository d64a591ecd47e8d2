package kv

import (
	"fmt"
	"math/rand"
	"testing"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// acctModel is the store's bookkeeping written the plain way: one
// map[string]index.Loc of current records, and a log it lays out itself —
// record sizes, rotation, victim choice and compaction moves — so it
// predicts every Loc and every segment's live and dead bytes without
// reading the store.
type acctModel struct {
	segBytes int64
	minDead  float64
	locs     map[string]index.Loc
	segs     map[uint32]*modelSeg
	order    []uint32
	nextID   uint32
}

type modelSeg struct {
	id         uint32
	tail       int64
	live, dead int64
	recs       []modelRec
}

type modelRec struct {
	key    string
	off    int64
	valLen int
	tomb   bool
}

func newAcctModel(cfg Config) *acctModel {
	m := &acctModel{
		segBytes: cfg.SegmentBytes,
		minDead:  CompactMinDeadFrac,
		locs:     make(map[string]index.Loc),
		segs:     make(map[uint32]*modelSeg),
		nextID:   1,
	}
	m.rotate()
	return m
}

func (m *acctModel) rotate() {
	sg := &modelSeg{id: m.nextID}
	m.nextID++
	m.segs[sg.id] = sg
	m.order = append(m.order, sg.id)
}

func (m *acctModel) active() *modelSeg { return m.segs[m.order[len(m.order)-1]] }

// appendRec places one record at the log's tail, rotating when it does not
// fit, and returns its segment.
func (m *acctModel) appendRec(r modelRec) *modelSeg {
	if m.active().tail+recordSize(len(r.key), r.valLen) > m.segBytes {
		m.rotate()
	}
	sg := m.active()
	r.off = sg.tail
	sg.tail += recordSize(len(r.key), r.valLen)
	sg.recs = append(sg.recs, r)
	return sg
}

// retire turns key's current record dead and forgets it.
func (m *acctModel) retire(key string) {
	l, ok := m.locs[key]
	if !ok {
		return
	}
	if sg, ok := m.segs[l.Seg]; ok {
		sz := recordSize(len(key), int(l.ValLen))
		sg.live -= sz
		sg.dead += sz
	}
	delete(m.locs, key)
}

func (m *acctModel) put(key string, valLen int) {
	sg := m.appendRec(modelRec{key: key, valLen: valLen})
	m.retire(key)
	r := sg.recs[len(sg.recs)-1]
	m.locs[key] = index.Loc{Seg: sg.id, Off: r.off, ValLen: uint32(valLen)}
	sg.live += recordSize(len(key), valLen)
}

func (m *acctModel) del(key string) {
	if _, ok := m.locs[key]; !ok {
		return
	}
	sg := m.appendRec(modelRec{key: key, tomb: true})
	m.retire(key)
	sg.dead += recordSize(len(key), 0)
}

// tick compacts the sealed segment with the highest dead fraction at or
// above the threshold, first in creation order on ties.
func (m *acctModel) tick() {
	frac := func(sg *modelSeg) float64 {
		if sg.tail == 0 {
			return 0
		}
		return float64(sg.dead) / float64(sg.tail)
	}
	var victim *modelSeg
	for _, id := range m.order[:len(m.order)-1] {
		if sg := m.segs[id]; frac(sg) >= m.minDead && (victim == nil || frac(sg) > frac(victim)) {
			victim = sg
		}
	}
	if victim == nil {
		return
	}
	for _, r := range victim.recs {
		sz := recordSize(len(r.key), r.valLen)
		if r.tomb {
			if _, live := m.locs[r.key]; live || m.order[0] == victim.id {
				continue
			}
			m.appendRec(r).dead += sz
			continue
		}
		if l, ok := m.locs[r.key]; !ok || l.Seg != victim.id || l.Off != r.off {
			continue
		}
		m.put(r.key, r.valLen)
	}
	delete(m.segs, victim.id)
	for i, id := range m.order {
		if id == victim.id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// check compares the store's slot-table accounting with the model.
func (m *acctModel) check(t *testing.T, step int, s *Store) {
	t.Helper()
	if s.Len() != len(m.locs) {
		t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(m.locs))
	}
	for key, slot := range s.acct {
		if got, want := s.locs[slot], m.locs[key]; got != want {
			t.Fatalf("step %d: %s at %+v, model %+v", step, key, got, want)
		}
	}
	if len(s.segs) != len(m.segs) {
		t.Fatalf("step %d: %d segments, model %d", step, len(s.segs), len(m.segs))
	}
	for id, want := range m.segs {
		got, ok := s.segs[id]
		if !ok {
			t.Fatalf("step %d: segment %d missing", step, id)
		}
		if got.tail != want.tail || got.live != want.live || got.dead != want.dead {
			t.Fatalf("step %d: segment %d tail/live/dead %d/%d/%d, model %d/%d/%d",
				step, id, got.tail, got.live, got.dead, want.tail, want.live, want.dead)
		}
	}
}

// TestSlotAccountingMatchesMapModel drives the store and acctModel with the
// same seeded Puts, Deletes, MaintenanceTicks and reopens, and requires the
// two to agree after every step on Len, every key's Loc, and every
// segment's live and dead bytes.
func TestSlotAccountingMatchesMapModel(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			be := testBackend(t, false)
			cfg := Config{SegmentBytes: 4 << 10}
			s := testStore(t, be, cfg)
			m := newAcctModel(cfg)
			m.check(t, -1, s)
			now := sim.Time(0)
			var err error
			val := make([]byte, 300)
			for step := 0; step < 4000; step++ {
				key := fmt.Sprintf("key-%d", rng.Intn(60))
				switch p := rng.Intn(100); {
				case p < 60:
					n := 1 + rng.Intn(len(val))
					if now, err = s.Put(now, key, val[:n]); err != nil {
						t.Fatal(err)
					}
					m.put(key, n)
				case p < 80:
					if now, err = s.Delete(now, key); err != nil && err != ErrNotFound {
						t.Fatal(err)
					}
					m.del(key)
				case p < 98:
					if _, now, err = s.MaintenanceTick(now); err != nil {
						t.Fatal(err)
					}
					m.tick()
				default:
					if now, err = s.Close(now); err != nil {
						t.Fatal(err)
					}
					if s, now, err = Open(now, be, cfg); err != nil {
						t.Fatal(err)
					}
				}
				m.check(t, step, s)
			}
			if s.Stats().Compactions == 0 {
				t.Fatal("no compaction ran: the model's compaction path went untested")
			}
		})
	}
}
