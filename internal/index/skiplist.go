package index

import "pipette/internal/sim"

// skipList is the ordered in-memory map behind the hash engine's Scan and
// the LSM memtable: O(log n) insert, delete, and seek over keys carrying a
// Loc payload (and, for the memtable, a tombstone flag). Level draws come
// from a seeded RNG, keeping the structure — and therefore every simulated
// run — deterministic.
//
// Nodes and their towers are carved from chunks the list owns, so an insert
// allocates only when the chunks run out, and a flushed memtable keeps its
// chunks for the next one (reset). Deleted nodes (the hash engine deletes;
// the memtable writes tombstones instead) are kept on free lists by tower
// capacity and reused by later inserts, so delete churn does not grow the
// arena.
const (
	skipMaxLevel   = 20  // comfortable for ~10^9 keys at p = 1/4
	skipNodeChunk  = 128 // nodes per arena chunk
	skipTowerChunk = 512 // tower pointers per arena chunk
)

type skipNode struct {
	key       string
	loc       Loc
	tombstone bool
	next      []*skipNode
}

type skipList struct {
	head   *skipNode
	rng    *sim.RNG
	level  int // highest level currently in use
	length int

	nodes  []skipNode                  // unused tail of the current node chunk
	towers []*skipNode                 // unused tail of the current tower chunk
	free   [skipMaxLevel + 1]*skipNode // deleted nodes by tower capacity, chained on next[0]

	// Every chunk carved so far, in order; nodeNext and towerNext index the
	// first one not yet started since the last reset.
	nodeChunks          [][]skipNode
	towerChunks         [][]*skipNode
	nodeNext, towerNext int
}

func newSkipList(seed uint64) *skipList {
	return &skipList{
		head:  &skipNode{next: make([]*skipNode, skipMaxLevel)},
		rng:   sim.NewRNG(seed),
		level: 1,
	}
}

// reset empties the list for reuse, as newSkipList(seed) would return it,
// keeping the chunks it has carved: nodes from before the reset become
// invalid.
func (l *skipList) reset(seed uint64) {
	for _, c := range l.nodeChunks[:l.nodeNext] {
		clear(c)
	}
	for _, c := range l.towerChunks[:l.towerNext] {
		clear(c)
	}
	clear(l.head.next)
	l.free = [skipMaxLevel + 1]*skipNode{}
	*l.rng = *sim.NewRNG(seed)
	l.level, l.length = 1, 0
	l.nodes, l.towers = nil, nil
	l.nodeNext, l.towerNext = 0, 0
}

func (l *skipList) randLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && l.rng.Uint64()&3 == 0 {
		lvl++
	}
	return lvl
}

// findPath fills update with the rightmost node before key on every level.
func (l *skipList) findPath(key string, update *[skipMaxLevel]*skipNode) *skipNode {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	return x.next[0]
}

// set maps key to (loc, tombstone), inserting or updating in place.
func (l *skipList) set(key string, loc Loc, tombstone bool) {
	var update [skipMaxLevel]*skipNode
	if n := l.findPath(key, &update); n != nil && n.key == key {
		n.loc = loc
		n.tombstone = tombstone
		return
	}
	lvl := l.randLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	n := l.newNode(lvl)
	n.key, n.loc, n.tombstone = key, loc, tombstone
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	l.length++
}

// newNode returns a node with a tower of lvl levels: a deleted node whose
// tower is tall enough, else the next node and tower of the arena chunks.
// The caller overwrites every field.
func (l *skipList) newNode(lvl int) *skipNode {
	for c := lvl; c <= skipMaxLevel; c++ {
		if n := l.free[c]; n != nil {
			l.free[c] = n.next[0]
			n.next = n.next[:lvl]
			return n
		}
	}
	if len(l.nodes) == 0 {
		if l.nodeNext == len(l.nodeChunks) {
			l.nodeChunks = append(l.nodeChunks, make([]skipNode, skipNodeChunk))
		}
		l.nodes = l.nodeChunks[l.nodeNext]
		l.nodeNext++
	}
	n := &l.nodes[0]
	l.nodes = l.nodes[1:]
	if len(l.towers) < lvl {
		if l.towerNext == len(l.towerChunks) {
			l.towerChunks = append(l.towerChunks, make([]*skipNode, skipTowerChunk))
		}
		l.towers = l.towerChunks[l.towerNext]
		l.towerNext++
	}
	n.next = l.towers[:lvl:lvl]
	l.towers = l.towers[lvl:]
	return n
}

// get returns key's entry, if present.
func (l *skipList) get(key string) (Loc, bool, bool) {
	n := l.seek(key)
	if n == nil || n.key != key {
		return Loc{}, false, false
	}
	return n.loc, n.tombstone, true
}

// delete removes key; reports false if it was absent.
func (l *skipList) delete(key string) bool {
	var update [skipMaxLevel]*skipNode
	n := l.findPath(key, &update)
	if n == nil || n.key != key {
		return false
	}
	for i := 0; i < len(n.next); i++ {
		if update[i].next[i] == n {
			update[i].next[i] = n.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.length--
	c := cap(n.next)
	n.key = ""
	n.next[0] = l.free[c]
	l.free[c] = n
	return true
}

// seek returns the first node with key >= key (nil past the end); walk
// node.next[0] for in-order iteration.
func (l *skipList) seek(key string) *skipNode {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	return x.next[0]
}

func (l *skipList) first() *skipNode { return l.head.next[0] }

func (l *skipList) len() int { return l.length }
