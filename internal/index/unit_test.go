package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestSkipList(t *testing.T) {
	t.Parallel()
	l := newSkipList(42)
	keys := []string{"m", "c", "x", "a", "t", "c"} // one duplicate
	for i, k := range keys {
		l.set(k, Loc{Seg: uint32(i)}, false)
	}
	if l.len() != 5 {
		t.Fatalf("len = %d, want 5", l.len())
	}
	// The duplicate "c" must hold the later payload.
	if loc, tomb, ok := l.get("c"); !ok || tomb || loc.Seg != 5 {
		t.Fatalf("get(c) = %v %v %v, want Seg=5", loc, tomb, ok)
	}
	var walk []string
	for n := l.first(); n != nil; n = n.next[0] {
		walk = append(walk, n.key)
	}
	if fmt.Sprint(walk) != fmt.Sprint([]string{"a", "c", "m", "t", "x"}) {
		t.Fatalf("walk = %v", walk)
	}
	l.set("m", Loc{}, true) // tombstone overwrite keeps the node
	if _, tomb, ok := l.get("m"); !ok || !tomb {
		t.Fatal("tombstone set not visible")
	}
	if !l.delete("m") || l.delete("m") {
		t.Fatal("delete semantics broken")
	}
	if n := l.seek("d"); n == nil || n.key != "t" {
		t.Fatalf("seek(d) = %v, want t", n)
	}
}

func TestRunRecordRoundTrip(t *testing.T) {
	t.Parallel()
	want := Loc{Seg: 7, Off: 123456789, ValLen: 321}
	buf := appendRunRecord(nil, "some/key", want, false)
	buf = appendRunRecord(buf, "tomb", Loc{}, true)

	key, l, tomb, sz, ok := parseRunRecord(buf)
	if !ok || string(key) != "some/key" || l != want || tomb {
		t.Fatalf("parse = %q %v %v %v", key, l, tomb, ok)
	}
	key, _, tomb, _, ok = parseRunRecord(buf[sz:])
	if !ok || string(key) != "tomb" || !tomb {
		t.Fatalf("parse tombstone = %q %v %v", key, tomb, ok)
	}

	// Any flipped bit must fail validation, not decode into a wrong Loc.
	for off := 0; off < sz; off++ {
		for bit := uint(0); bit < 8; bit++ {
			buf[off] ^= 1 << bit
			if k, gl, _, gsz, gok := parseRunRecord(buf); gok && gsz == sz && (string(k) != string(key) || gl != want) {
				t.Fatalf("bit flip at %d/%d decoded as %q %v", off, bit, k, gl)
			}
			buf[off] ^= 1 << bit
		}
	}

	// Padding (zero bytes) reads as "no record".
	if _, _, _, _, ok := parseRunRecord(make([]byte, 64)); ok {
		t.Fatal("zero padding parsed as a record")
	}
}

func TestBloomFilter(t *testing.T) {
	t.Parallel()
	const n = 4096
	f := newBloom(n, 10)
	for i := 0; i < n; i++ {
		f.add(fmt.Sprintf("present-%05d", i))
	}
	for i := 0; i < n; i++ {
		if !f.mayContain(fmt.Sprintf("present-%05d", i)) {
			t.Fatalf("false negative for present-%05d", i)
		}
	}
	fp := 0
	for i := 0; i < n; i++ {
		if f.mayContain(fmt.Sprintf("absent-%05d", i)) {
			fp++
		}
	}
	// 10 bits/key, k=6 gives ~1% theoretical FP; allow generous slack.
	if rate := float64(fp) / n; rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestBlockCacheLRU(t *testing.T) {
	t.Parallel()
	c := newBlockCache(2)
	k := func(seq uint64, blk int) blockCacheKey { return blockCacheKey{seq: seq, blk: blk} }
	c.put(k(1, 0), []byte("a"))
	c.put(k(1, 1), []byte("b"))
	if _, ok := c.get(k(1, 0)); !ok { // touch: 0 becomes most recent
		t.Fatal("miss on resident block")
	}
	c.put(k(2, 0), []byte("c")) // evicts (1,1), the LRU
	if _, ok := c.get(k(1, 1)); ok {
		t.Fatal("LRU block survived eviction")
	}
	if _, ok := c.get(k(1, 0)); !ok {
		t.Fatal("recently-used block evicted")
	}
	c.dropRun(1)
	if _, ok := c.get(k(1, 0)); ok {
		t.Fatal("dropRun left a block behind")
	}
	if _, ok := c.get(k(2, 0)); !ok {
		t.Fatal("dropRun evicted another run's block")
	}
}

// TestSearchBlockMatchesLinearScan checks searchBlock, which compares the
// []byte key views in place, against a linear scan over the block's records
// with string keys. Blocks are random sorted runs of records with
// tombstones, keys that are prefixes of one another and bytes above 0x7f,
// and zero padding after the last record.
func TestSearchBlockMatchesLinearScan(t *testing.T) {
	t.Parallel()
	type rec struct {
		key  string
		loc  Loc
		tomb bool
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte{'a', 'b', 'z', 0x00, 0x7f, 0x80, 0xff}
	randKey := func() string {
		k := make([]byte, 1+rng.Intn(6))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(k)
	}
	linear := func(recs []rec, key string) (Loc, bool, bool) {
		for _, r := range recs {
			if r.key == key {
				return r.loc, r.tomb, true
			}
		}
		return Loc{}, false, false
	}
	for trial := 0; trial < 500; trial++ {
		uniq := map[string]bool{}
		for n := rng.Intn(12); len(uniq) < n; {
			uniq[randKey()] = true
		}
		keys := make([]string, 0, len(uniq))
		for k := range uniq {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		recs := make([]rec, len(keys))
		var block []byte
		for i, k := range keys {
			recs[i] = rec{key: k, loc: Loc{Seg: rng.Uint32(), Off: rng.Int63(), ValLen: rng.Uint32()}, tomb: rng.Intn(4) == 0}
			block = appendRunRecord(block, k, recs[i].loc, recs[i].tomb)
		}
		block = append(block, make([]byte, rng.Intn(64))...) // padding

		probes := append([]string{"", "\xff\xff\xff\xff\xff\xff\xff"}, keys...)
		for i := 0; i < 20; i++ {
			probes = append(probes, randKey())
		}
		for _, k := range keys {
			probes = append(probes, k[:len(k)-1], k+"\x00", k+"\xff")
		}
		for _, p := range probes {
			gl, gt, gok := searchBlock(block, p)
			wl, wt, wok := linear(recs, p)
			if gl != wl || gt != wt || gok != wok {
				t.Fatalf("trial %d, keys %q: searchBlock(%q) = %v %v %v, linear scan %v %v %v",
					trial, keys, p, gl, gt, gok, wl, wt, wok)
			}
		}
	}
}
