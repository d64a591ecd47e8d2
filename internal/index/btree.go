package index

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pipette/internal/sim"
)

// Paged B+-tree engine. Nodes are fixed sub-page cells (NodeBytes, default
// 512 B) packed into arena files on the store's filesystem, so every
// traversal step is a timed read through the vfs: a block-granular stack
// rounds each one up to a full page, the fine-grained path transfers the
// node and nothing else. Interior nodes hold separator keys and child ids;
// leaves hold key -> Loc entries and are chained for range scans.
//
// Node cell layout (NodeBytes total):
//
//	[0]      magic (btMagic)
//	[1]      flags (bit 0: leaf)
//	[2:4]    entry count, uint16 LE
//	[4:8]    link, uint32 LE — next-leaf id for leaves, leftmost child for
//	         interior nodes (0 = none)
//	[8:10]   used entry bytes, uint16 LE
//	[10:14]  CRC-32C checksum over bytes [1:10] ++ entries
//	[14:]    entries, sorted by key:
//	         leaf:     [klen u16][key][seg u32][off u64][vallen u32]
//	         interior: [klen u16][key][child u32]
//
// An interior node's link child covers keys below its first separator;
// entry i's child covers [key_i, key_i+1). The checksum makes a torn or
// bit-flipped cell self-identifying, mirroring the value-log records: the
// engine refuses to decode damage rather than serve a wrong Loc (and the
// store rebuilds the whole index from the checksummed log at Open anyway).
const (
	btMagic   = 0xB7
	btHdrSize = 14

	btFlagLeaf = 1 << 0
)

const (
	btLeafExtra     = 2 + 16 // klen + Loc(seg, off, vallen)
	btInteriorExtra = 2 + 4  // klen + child id
)

// btNode is one decoded node. keys pairs with locs (leaf) or kids
// (interior); link is the next leaf or the leftmost child.
type btNode struct {
	id   uint32
	leaf bool
	link uint32
	keys []string
	locs []Loc
	kids []uint32
}

func (n *btNode) used() int {
	u := 0
	for _, k := range n.keys {
		if n.leaf {
			u += len(k) + btLeafExtra
		} else {
			u += len(k) + btInteriorExtra
		}
	}
	return u
}

// arena is one fixed-size node file.
type arena struct {
	name string
	w    File
	r    File
}

type btreeEngine struct {
	be  Backend
	cfg Config

	arenas []arena
	nextID uint32   // next never-used node id (1-based)
	free   []uint32 // freed node ids, reused LIFO

	root   uint32
	height int

	stats Stats
	buf   []byte // node codec scratch
}

func newBTree(be Backend, cfg Config) (*btreeEngine, error) {
	if NodeBytes > be.PageSize() {
		return nil, fmt.Errorf("index: NodeBytes %d exceeds the %d B page — interior nodes must stay sub-page",
			NodeBytes, be.PageSize())
	}
	t := &btreeEngine{
		be:     be,
		cfg:    cfg,
		nextID: 1,
		buf:    make([]byte, NodeBytes),
	}
	// The tree starts as one empty leaf root; the first arena is created by
	// the allocation below.
	id, err := t.alloc()
	if err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	if _, err := t.writeNode(0, &btNode{id: id, leaf: true}); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *btreeEngine) Stats() Stats {
	s := t.stats
	s.Height = t.height
	s.Nodes = int(t.nextID-1) - len(t.free)
	return s
}

func (t *btreeEngine) capacity() int { return NodeBytes - btHdrSize }

// entrySize is a leaf entry's footprint; the largest thing Insert must fit.
func entrySize(key string) int { return len(key) + btLeafExtra }

// ---- arena paging ----

func (t *btreeEngine) arenaName(i int) string {
	return fmt.Sprintf("%sbt-%08d", t.cfg.NamePrefix, i)
}

// alloc returns a node id, creating a new arena file when the id space of
// the existing ones is exhausted. Ids are 1-based so 0 can mean "none".
func (t *btreeEngine) alloc() (uint32, error) {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id, nil
	}
	id := t.nextID
	need := int(id-1)/ArenaNodes + 1
	for len(t.arenas) < need {
		name := t.arenaName(len(t.arenas))
		w, err := t.be.Create(name, int64(ArenaNodes)*int64(NodeBytes))
		if err != nil {
			return 0, fmt.Errorf("index: create arena %s: %w", name, err)
		}
		r, err := t.be.OpenReader(name, t.cfg.Fine)
		if err != nil {
			return 0, fmt.Errorf("index: open arena %s: %w", name, err)
		}
		t.arenas = append(t.arenas, arena{name: name, w: w, r: r})
	}
	t.nextID++
	return id, nil
}

func (t *btreeEngine) place(id uint32) (*arena, int64) {
	slot := int(id - 1)
	return &t.arenas[slot/ArenaNodes], int64(slot%ArenaNodes) * int64(NodeBytes)
}

// readNode fetches and decodes one node — a timed sub-page read down the
// configured path (the vfs page cache and fine-grained cache sit below, so
// hot upper levels hit host memory exactly as they would on real hardware).
func (t *btreeEngine) readNode(now sim.Time, id uint32) (*btNode, sim.Time, error) {
	ar, off := t.place(id)
	got, done, err := ar.r.ReadAt(now, t.buf, off)
	if err != nil {
		return nil, done, fmt.Errorf("index: btree node %d: %w", id, err)
	}
	if got != NodeBytes {
		return nil, done, fmt.Errorf("index: btree node %d: short read %d", id, got)
	}
	t.stats.NodeReads++
	t.stats.BytesRead += uint64(got)
	n, err := t.decode(id, t.buf)
	return n, done, err
}

func (t *btreeEngine) decode(id uint32, b []byte) (*btNode, error) {
	if b[0] != btMagic {
		return nil, fmt.Errorf("index: btree node %d: bad magic 0x%02x", id, b[0])
	}
	count := int(binary.LittleEndian.Uint16(b[2:4]))
	used := int(binary.LittleEndian.Uint16(b[8:10]))
	if btHdrSize+used > len(b) {
		return nil, fmt.Errorf("index: btree node %d: used %d overflows cell", id, used)
	}
	if sum := Checksum(b[1:10], b[btHdrSize:btHdrSize+used]); sum != binary.LittleEndian.Uint32(b[10:14]) {
		return nil, fmt.Errorf("index: btree node %d: checksum mismatch", id)
	}
	n := &btNode{
		id:   id,
		leaf: b[1]&btFlagLeaf != 0,
		link: binary.LittleEndian.Uint32(b[4:8]),
		keys: make([]string, 0, count),
	}
	if n.leaf {
		n.locs = make([]Loc, 0, count)
	} else {
		n.kids = make([]uint32, 0, count)
	}
	p := btHdrSize
	for i := 0; i < count; i++ {
		if p+2 > btHdrSize+used {
			return nil, fmt.Errorf("index: btree node %d: truncated entry %d", id, i)
		}
		klen := int(binary.LittleEndian.Uint16(b[p : p+2]))
		extra := btInteriorExtra
		if n.leaf {
			extra = btLeafExtra
		}
		if p+klen+extra > btHdrSize+used {
			return nil, fmt.Errorf("index: btree node %d: entry %d overflows cell", id, i)
		}
		key := string(b[p+2 : p+2+klen])
		p += 2 + klen
		n.keys = append(n.keys, key)
		if n.leaf {
			n.locs = append(n.locs, Loc{
				Seg:    binary.LittleEndian.Uint32(b[p : p+4]),
				Off:    int64(binary.LittleEndian.Uint64(b[p+4 : p+12])),
				ValLen: binary.LittleEndian.Uint32(b[p+12 : p+16]),
			})
			p += 16
		} else {
			n.kids = append(n.kids, binary.LittleEndian.Uint32(b[p:p+4]))
			p += 4
		}
	}
	return n, nil
}

// writeNode encodes and writes one node cell — a timed sub-page write that
// lands in the page cache and reaches the device via writeback, like every
// other host write.
func (t *btreeEngine) writeNode(now sim.Time, n *btNode) (sim.Time, error) {
	b := t.buf
	for i := range b {
		b[i] = 0
	}
	b[0] = btMagic
	b[1] = 0
	if n.leaf {
		b[1] = btFlagLeaf
	}
	binary.LittleEndian.PutUint16(b[2:4], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(b[4:8], n.link)
	p := btHdrSize
	for i, k := range n.keys {
		binary.LittleEndian.PutUint16(b[p:p+2], uint16(len(k)))
		copy(b[p+2:], k)
		p += 2 + len(k)
		if n.leaf {
			binary.LittleEndian.PutUint32(b[p:p+4], n.locs[i].Seg)
			binary.LittleEndian.PutUint64(b[p+4:p+12], uint64(n.locs[i].Off))
			binary.LittleEndian.PutUint32(b[p+12:p+16], n.locs[i].ValLen)
			p += 16
		} else {
			binary.LittleEndian.PutUint32(b[p:p+4], n.kids[i])
			p += 4
		}
	}
	used := p - btHdrSize
	binary.LittleEndian.PutUint16(b[8:10], uint16(used))
	binary.LittleEndian.PutUint32(b[10:14], Checksum(b[1:10], b[btHdrSize:p]))

	ar, off := t.place(n.id)
	wrote, done, err := ar.w.WriteAt(now, b, off)
	if err != nil {
		return done, fmt.Errorf("index: btree node %d: %w", n.id, err)
	}
	if wrote != len(b) {
		return done, fmt.Errorf("index: btree node %d: short write %d", n.id, wrote)
	}
	t.stats.NodeWrites++
	t.stats.BytesWritten += uint64(len(b))
	return done, nil
}

// childFor picks the child covering key in an interior node.
func (n *btNode) childFor(key string) (uint32, int) {
	// First separator greater than key; the child before it covers key.
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	if i == 0 {
		return n.link, -1
	}
	return n.kids[i-1], i - 1
}

// find returns key's slot in a sorted key list and whether it is present.
func find(keys []string, key string) (int, bool) {
	i := sort.SearchStrings(keys, key)
	return i, i < len(keys) && keys[i] == key
}

// ---- lookup ----

func (t *btreeEngine) Lookup(now sim.Time, key string) (Loc, bool, sim.Time, error) {
	t.stats.Lookups++
	id := t.root
	for {
		n, done, err := t.readNode(now, id)
		if err != nil {
			return Loc{}, false, done, err
		}
		now = done
		if n.leaf {
			i, ok := find(n.keys, key)
			if !ok {
				return Loc{}, false, now, nil
			}
			return n.locs[i], true, now, nil
		}
		id, _ = n.childFor(key)
	}
}

// ---- insert ----

// pathStep is one interior node on the descent, with the child slot taken
// (-1 = the link child).
type pathStep struct {
	node *btNode
	slot int
}

// descend walks root -> leaf for key, returning the interior path and leaf.
func (t *btreeEngine) descend(now sim.Time, key string) ([]pathStep, *btNode, sim.Time, error) {
	var path []pathStep
	id := t.root
	for {
		n, done, err := t.readNode(now, id)
		if err != nil {
			return nil, nil, done, err
		}
		now = done
		if n.leaf {
			return path, n, now, nil
		}
		child, slot := n.childFor(key)
		path = append(path, pathStep{node: n, slot: slot})
		id = child
	}
}

func (t *btreeEngine) Insert(now sim.Time, key string, l Loc) (sim.Time, error) {
	t.stats.Inserts++
	if entrySize(key) > t.capacity()/2 {
		return now, fmt.Errorf("index: key of %d bytes does not fit a %d B btree node", len(key), NodeBytes)
	}
	path, leaf, now, err := t.descend(now, key)
	if err != nil {
		return now, err
	}
	i, ok := find(leaf.keys, key)
	if ok {
		leaf.locs[i] = l
		return t.writeNode(now, leaf)
	}
	leaf.keys = append(leaf.keys, "")
	copy(leaf.keys[i+1:], leaf.keys[i:])
	leaf.keys[i] = key
	leaf.locs = append(leaf.locs, Loc{})
	copy(leaf.locs[i+1:], leaf.locs[i:])
	leaf.locs[i] = l
	if leaf.used() <= t.capacity() {
		return t.writeNode(now, leaf)
	}
	return t.splitUp(now, path, leaf)
}

// splitUp splits an overflowing node and propagates the promoted separator
// toward the root, splitting interior nodes as needed.
func (t *btreeEngine) splitUp(now sim.Time, path []pathStep, n *btNode) (sim.Time, error) {
	for {
		rightID, err := t.alloc()
		if err != nil {
			return now, err
		}
		t.stats.Splits++
		m := splitPoint(n)
		right := &btNode{id: rightID, leaf: n.leaf}
		var sep string
		if n.leaf {
			right.keys = append(right.keys, n.keys[m:]...)
			right.locs = append(right.locs, n.locs[m:]...)
			n.keys = n.keys[:m]
			n.locs = n.locs[:m]
			right.link = n.link
			n.link = rightID
			sep = right.keys[0]
		} else {
			// The separator at m moves up; its child becomes right's link.
			sep = n.keys[m]
			right.link = n.kids[m]
			right.keys = append(right.keys, n.keys[m+1:]...)
			right.kids = append(right.kids, n.kids[m+1:]...)
			n.keys = n.keys[:m]
			n.kids = n.kids[:m]
		}
		if now, err = t.writeNode(now, n); err != nil {
			return now, err
		}
		if now, err = t.writeNode(now, right); err != nil {
			return now, err
		}

		if len(path) == 0 {
			// Root split: the tree grows a level.
			rootID, err := t.alloc()
			if err != nil {
				return now, err
			}
			root := &btNode{id: rootID, link: n.id, keys: []string{sep}, kids: []uint32{rightID}}
			t.root = rootID
			t.height++
			return t.writeNode(now, root)
		}

		parent := path[len(path)-1].node
		path = path[:len(path)-1]
		i := sort.SearchStrings(parent.keys, sep)
		parent.keys = append(parent.keys, "")
		copy(parent.keys[i+1:], parent.keys[i:])
		parent.keys[i] = sep
		parent.kids = append(parent.kids, 0)
		copy(parent.kids[i+1:], parent.kids[i:])
		parent.kids[i] = rightID
		if parent.used() <= t.capacity() {
			return t.writeNode(now, parent)
		}
		n = parent
	}
}

// splitPoint picks the entry index where the left half's byte footprint
// first reaches half the node's, keeping both halves near balanced under
// variable-length keys.
func splitPoint(n *btNode) int {
	target := n.used() / 2
	extra := btInteriorExtra
	if n.leaf {
		extra = btLeafExtra
	}
	acc := 0
	for i, k := range n.keys {
		acc += len(k) + extra
		if acc >= target {
			// Both sides must keep at least one entry.
			if i == 0 {
				return 1
			}
			if i+1 >= len(n.keys) {
				return len(n.keys) - 1
			}
			return i + 1
		}
	}
	return len(n.keys) / 2
}

// ---- delete ----

func (t *btreeEngine) Delete(now sim.Time, key string) (sim.Time, error) {
	t.stats.Deletes++
	path, leaf, now, err := t.descend(now, key)
	if err != nil {
		return now, err
	}
	i, ok := find(leaf.keys, key)
	if !ok {
		return now, nil
	}
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.locs = append(leaf.locs[:i], leaf.locs[i+1:]...)
	if now, err = t.writeNode(now, leaf); err != nil {
		return now, err
	}
	return t.rebalanceUp(now, path, leaf)
}

// rebalanceUp restores the underflow invariant from a shrunken node toward
// the root: merge with an adjacent sibling when both fit in one cell,
// otherwise borrow an entry from a fuller neighbor; a root interior node
// left without separators collapses into its only child.
func (t *btreeEngine) rebalanceUp(now sim.Time, path []pathStep, n *btNode) (sim.Time, error) {
	var err error
	for {
		if len(path) == 0 {
			// n is the root. An interior root with no separators has one
			// child left: the tree shrinks a level.
			if !n.leaf && len(n.keys) == 0 {
				t.free = append(t.free, n.id)
				t.root = n.link
				t.height--
				t.stats.Merges++
			}
			return now, nil
		}
		if n.used()*4 >= t.capacity() {
			return now, nil
		}
		step := path[len(path)-1]
		path = path[:len(path)-1]
		parent := step.node
		if now, err = t.rebalanceChild(now, parent, step.slot, n); err != nil {
			return now, err
		}
		n = parent
	}
}

// childAt resolves a parent's child pointer by slot (-1 = link).
func (n *btNode) childAt(slot int) uint32 {
	if slot < 0 {
		return n.link
	}
	return n.kids[slot]
}

// rebalanceChild fixes the underfull child at slot by merging with or
// borrowing from an adjacent sibling, rewriting every touched node. The
// parent is updated in memory and written; its own underflow is the
// caller's loop to fix.
func (t *btreeEngine) rebalanceChild(now sim.Time, parent *btNode, slot int, child *btNode) (sim.Time, error) {
	// Prefer the right sibling; fall back to the left. slot is the child's
	// separator index in parent (-1 when child is the link child), so the
	// right sibling is kids[slot+1] and the left is childAt(slot-1).
	var err error
	if slot+1 < len(parent.kids) {
		var right *btNode
		right, now, err = t.readNode(now, parent.kids[slot+1])
		if err != nil {
			return now, err
		}
		return t.joinOrBorrow(now, parent, slot+1, child, right)
	}
	if slot >= 0 {
		var left *btNode
		left, now, err = t.readNode(now, parent.childAt(slot-1))
		if err != nil {
			return now, err
		}
		return t.joinOrBorrow(now, parent, slot, left, child)
	}
	// No sibling: parent has a single child and no separators; the caller's
	// loop collapses it at the root.
	return now, nil
}

// joinOrBorrow balances the adjacent pair (left, right) whose separator is
// parent.keys[sepIdx]: a full merge when one cell fits both, otherwise one
// entry shifts across the separator when that actually relieves pressure.
func (t *btreeEngine) joinOrBorrow(now sim.Time, parent *btNode, sepIdx int, left, right *btNode) (sim.Time, error) {
	sep := parent.keys[sepIdx]
	merged := left.used() + right.used()
	if !left.leaf {
		merged += len(sep) + btInteriorExtra
	}
	var err error
	if merged <= t.capacity() {
		// Merge right into left and drop the separator from the parent.
		if left.leaf {
			left.keys = append(left.keys, right.keys...)
			left.locs = append(left.locs, right.locs...)
			left.link = right.link
		} else {
			left.keys = append(left.keys, sep)
			left.kids = append(left.kids, right.link)
			left.keys = append(left.keys, right.keys...)
			left.kids = append(left.kids, right.kids...)
		}
		parent.keys = append(parent.keys[:sepIdx], parent.keys[sepIdx+1:]...)
		parent.kids = append(parent.kids[:sepIdx], parent.kids[sepIdx+1:]...)
		t.free = append(t.free, right.id)
		t.stats.Merges++
		if now, err = t.writeNode(now, left); err != nil {
			return now, err
		}
		return t.writeNode(now, parent)
	}

	// Borrow toward the emptier side, only when the donor stays above the
	// underflow line afterwards.
	if left.used() < right.used() && len(right.keys) > 1 {
		if left.leaf {
			k, l := right.keys[0], right.locs[0]
			right.keys = right.keys[1:]
			right.locs = right.locs[1:]
			left.keys = append(left.keys, k)
			left.locs = append(left.locs, l)
			parent.keys[sepIdx] = right.keys[0]
		} else {
			// Rotate left through the separator: sep comes down to left,
			// right's link child crosses, right's first key replaces sep.
			left.keys = append(left.keys, sep)
			left.kids = append(left.kids, right.link)
			parent.keys[sepIdx] = right.keys[0]
			right.link = right.kids[0]
			right.keys = right.keys[1:]
			right.kids = right.kids[1:]
		}
	} else if right.used() < left.used() && len(left.keys) > 1 {
		last := len(left.keys) - 1
		if left.leaf {
			k, l := left.keys[last], left.locs[last]
			left.keys = left.keys[:last]
			left.locs = left.locs[:last]
			right.keys = append([]string{k}, right.keys...)
			right.locs = append([]Loc{l}, right.locs...)
			parent.keys[sepIdx] = k
		} else {
			// Rotate right through the separator.
			right.keys = append([]string{sep}, right.keys...)
			right.kids = append([]uint32{right.link}, right.kids...)
			right.link = left.kids[last]
			parent.keys[sepIdx] = left.keys[last]
			left.keys = left.keys[:last]
			left.kids = left.kids[:last]
		}
	} else {
		return now, nil // nothing productive to move; underfull is tolerated
	}
	t.stats.Merges++
	if now, err = t.writeNode(now, left); err != nil {
		return now, err
	}
	if now, err = t.writeNode(now, right); err != nil {
		return now, err
	}
	return t.writeNode(now, parent)
}

// ---- scan ----

func (t *btreeEngine) Scan(now sim.Time, start string, fn func(sim.Time, string, Loc) (sim.Time, bool)) (sim.Time, error) {
	_, leaf, now, err := t.descend(now, start)
	if err != nil {
		return now, err
	}
	i := sort.SearchStrings(leaf.keys, start)
	for {
		for ; i < len(leaf.keys); i++ {
			var more bool
			now, more = fn(now, leaf.keys[i], leaf.locs[i])
			if !more {
				return now, nil
			}
		}
		if leaf.link == 0 {
			return now, nil
		}
		leaf, now, err = t.readNode(now, leaf.link)
		if err != nil {
			return now, err
		}
		i = 0
	}
}

// ---- maintenance ----

func (t *btreeEngine) Tick(now sim.Time) (bool, sim.Time, error) { return false, now, nil }

func (t *btreeEngine) Close(now sim.Time) (sim.Time, error) {
	var err error
	for i := range t.arenas {
		ar := &t.arenas[i]
		if ar.w != nil {
			done, serr := ar.w.Sync(now)
			if serr != nil && err == nil {
				err = serr
			}
			now = done
			if cerr := ar.w.Close(); cerr != nil && err == nil {
				err = cerr
			}
			ar.w = nil
		}
		if ar.r != nil {
			if cerr := ar.r.Close(); cerr != nil && err == nil {
				err = cerr
			}
			ar.r = nil
		}
	}
	return now, err
}
