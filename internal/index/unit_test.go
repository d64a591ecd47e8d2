package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestFenceSearchMatchesSearchStrings: the run's one-buffer fences pick
// the block sort.SearchStrings picks over the same keys as strings, for
// probes before, between, on and after the fences.
func TestFenceSearchMatchesSearchStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randKey := func() string {
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = byte('a' + rng.Intn(4)) // a small alphabet: shared prefixes
		}
		return string(b)
	}
	for round := 0; round < 200; round++ {
		seen := map[string]bool{}
		var keys []string
		for n := rng.Intn(12); len(keys) < n; {
			if k := randKey(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var f fenceKeys
		for _, k := range keys {
			f.add([]byte(k))
		}
		if f.len() != len(keys) {
			t.Fatalf("%d fences, want %d", f.len(), len(keys))
		}
		probes := append([]string{"", "\xff"}, keys...)
		for i := 0; i < 20; i++ {
			probes = append(probes, randKey())
		}
		for _, p := range probes {
			want := sort.SearchStrings(keys, p)
			got, exact := f.search(p)
			if got != want || exact != (want < len(keys) && keys[want] == p) {
				t.Fatalf("fences %q: search(%q) = %d %v, SearchStrings %d", keys, p, got, exact, want)
			}
		}
		c := f.clone()
		for i, k := range keys {
			if string(c.at(i)) != k {
				t.Fatalf("clone fence %d = %q, want %q", i, c.at(i), k)
			}
		}
	}
}

// TestChecksumIsCRC32C pins the record checksum to CRC-32C (Castagnoli)
// by its standard check value, "123456789" -> 0xE3069283, split into the
// two sections at every point.
func TestChecksumIsCRC32C(t *testing.T) {
	t.Parallel()
	in := []byte("123456789")
	for i := 0; i <= len(in); i++ {
		if got := Checksum(in[:i], in[i:]); got != 0xE3069283 {
			t.Fatalf("Checksum(%q, %q) = %#08x, want 0xe3069283", in[:i], in[i:], got)
		}
	}
}

// testRec is one run record as the tests write and expect it.
type testRec struct {
	key  string
	loc  Loc
	tomb bool
}

// encodeRun packs recs, sorted by key, into sealed blocks, and returns
// them with the keys the writer made fences.
func encodeRun(recs []testRec) (run []byte, fences []string) {
	var w blockWriter
	w.reset(nil)
	for _, r := range recs {
		if w.add([]byte(r.key), r.loc, r.tomb) {
			fences = append(fences, r.key)
		}
	}
	return w.finish(), fences
}

// decodeRun verifies every block of run and returns its records in order.
func decodeRun(t *testing.T, run []byte) []testRec {
	t.Helper()
	if len(run)%BlockBytes != 0 {
		t.Fatalf("run of %d bytes is not whole %d B blocks", len(run), BlockBytes)
	}
	var recs []testRec
	for off := 0; off < len(run); off += BlockBytes {
		block := run[off : off+BlockBytes]
		if err := verifyBlock(block); err != nil {
			t.Fatalf("block %d: %v", off/BlockBytes, err)
		}
		var it blockIter
		it.reset(block)
		for it.next() {
			l, ok := it.loc()
			if !ok {
				t.Fatalf("block %d: record %q has a Loc that does not decode", off/BlockBytes, it.key())
			}
			recs = append(recs, testRec{string(it.key()), l, it.tomb})
		}
		if it.left != 0 {
			t.Fatalf("block %d: %d records do not decode", off/BlockBytes, it.left)
		}
	}
	return recs
}

// TestRunBlockRoundTrip: records written across several blocks decode to
// exactly themselves, each block's first key is a fence, and a flip of any
// bit of a sealed block fails its verification.
func TestRunBlockRoundTrip(t *testing.T) {
	t.Parallel()
	recs := []testRec{
		{"", Loc{Seg: 1}, false},
		{"some/key", Loc{Seg: 7, Off: 123456789, ValLen: 321}, false},
		{"some/key2", Loc{Seg: math.MaxUint32, Off: -1, ValLen: math.MaxUint32}, false},
		{"tomb", Loc{}, true},
	}
	for i := 0; i < 200; i++ {
		recs = append(recs, testRec{fmt.Sprintf("user/%08d", i), Loc{Seg: uint32(i), Off: int64(i) << 20, ValLen: 100}, i%7 == 0})
	}
	run, fences := encodeRun(recs)
	if got := decodeRun(t, run); !slices.Equal(got, recs) {
		t.Fatalf("decoded %d records, want %d: %v", len(got), len(recs), got)
	}
	if len(fences) != len(run)/BlockBytes || len(fences) < 3 {
		t.Fatalf("%d fences for %d blocks", len(fences), len(run)/BlockBytes)
	}
	for i, f := range fences {
		var it blockIter
		it.reset(run[i*BlockBytes:])
		if !it.next() || string(it.key()) != f {
			t.Fatalf("block %d starts with %q, fence %q", i, it.key(), f)
		}
	}

	block := run[BlockBytes : 2*BlockBytes]
	for off := range block {
		for bit := uint(0); bit < 8; bit++ {
			block[off] ^= 1 << bit
			if err := verifyBlock(block); err == nil {
				t.Fatalf("bit %d of byte %d flipped and the block still verifies", bit, off)
			}
			block[off] ^= 1 << bit
		}
	}
	if err := verifyBlock(block); err != nil {
		t.Fatal(err)
	}
	if err := verifyBlock(make([]byte, BlockBytes)); err == nil {
		t.Fatal("a zeroed block verifies")
	}
}

// FuzzRunBlock: decoding arbitrary bytes never panics, and a block the
// decoder accepts answers searches for each of its keys; sorted keys with
// random Locs and tombstones round-trip through the writer; and any single
// changed byte of a sealed block fails verification.
func FuzzRunBlock(f *testing.F) {
	valid, _ := encodeRun([]testRec{{"a", Loc{Seg: 1}, false}, {"ab", Loc{Seg: 2, Off: 1 << 40}, true}, {"b", Loc{ValLen: 9}, false}})
	f.Add([]byte{}, int64(0))
	f.Add([]byte("\x03abc\x02ab\x05zzzzz\x01a"), int64(1))
	f.Add(valid, int64(2))
	f.Add(bytes.Repeat([]byte{0x0f, 'k', 'e', 'y', '/', 0x80, 0xff}, 100), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		// Arbitrary bytes, as they are and resealed so the decoder sees
		// past the checksum.
		var it blockIter
		it.reset(data)
		for it.next() {
		}
		searchBlock(data, "key")
		block := make([]byte, BlockBytes)
		copy(block, data)
		binary.LittleEndian.PutUint32(block[0:4], Checksum(block[4:blockHdrSize], block[blockHdrSize:]))
		if err := verifyBlock(block); err != nil {
			t.Fatalf("a resealed block fails verification: %v", err)
		}
		whole := true // every record and Loc decodes
		for it.reset(block); it.next(); {
			_, ok := it.loc()
			whole = whole && ok
		}
		if whole && it.left == 0 {
			for it.reset(block); it.next(); {
				want, _ := it.loc()
				if l, tomb, ok, err := searchBlock(block, string(it.key())); !ok || err != nil || l != want || tomb != it.tomb {
					t.Fatalf("searchBlock(%q) = %v %v %v %v, the block holds %v %v", it.key(), l, tomb, ok, err, want, it.tomb)
				}
			}
		}

		// Keys cut from data: a length byte, then that many bytes.
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		var keys []string
		for i := 0; i < len(data); {
			n := int(data[i]) % 24
			k := string(data[i+1 : min(i+1+n, len(data))])
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
			i += 1 + n
		}
		sort.Strings(keys)
		recs := make([]testRec, len(keys))
		for i, k := range keys {
			recs[i] = testRec{k, Loc{Seg: rng.Uint32(), Off: int64(rng.Uint64() >> rng.Intn(64)), ValLen: rng.Uint32() >> rng.Intn(32)}, rng.Intn(3) == 0}
		}
		run, fences := encodeRun(recs)
		if got := decodeRun(t, run); !slices.Equal(got, recs) {
			t.Fatalf("records %v decoded as %v", recs, got)
		}
		if len(fences) != len(run)/BlockBytes {
			t.Fatalf("%d fences for %d blocks", len(fences), len(run)/BlockBytes)
		}
		for off := 0; off < len(run); off += BlockBytes {
			block := run[off : off+BlockBytes]
			for i := range block {
				delta := byte(1 + rng.Intn(255))
				block[i] ^= delta
				if verifyBlock(block) == nil {
					t.Fatalf("byte %d of block %d changed by %#x and the block still verifies", i, off/BlockBytes, delta)
				}
				block[i] ^= delta
			}
		}
	})
}

func TestBloomFilter(t *testing.T) {
	t.Parallel()
	const n = 4096
	f := newBloom(n, 10)
	for i := 0; i < n; i++ {
		f.add([]byte(fmt.Sprintf("present-%05d", i)))
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
// rebuilt keys in place, against a linear scan over the block's records
// with string keys. Blocks are random sorted runs of records with
// tombstones, keys that are prefixes of one another and bytes above 0x7f,
// and zero padding after the last record.
func TestSearchBlockMatchesLinearScan(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte{'a', 'b', 'z', 0x00, 0x7f, 0x80, 0xff}
	randKey := func() string {
		k := make([]byte, 1+rng.Intn(6))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(k)
	}
	linear := func(recs []testRec, key string) (Loc, bool, bool) {
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
		recs := make([]testRec, len(keys))
		for i, k := range keys {
			recs[i] = testRec{key: k, loc: Loc{Seg: rng.Uint32(), Off: rng.Int63(), ValLen: rng.Uint32()}, tomb: rng.Intn(4) == 0}
		}
		block, _ := encodeRun(recs)
		if len(keys) > 0 && len(block) != BlockBytes {
			t.Fatalf("trial %d: %d keys took %d bytes, not one block", trial, len(keys), len(block))
		}

		probes := append([]string{"", "\xff\xff\xff\xff\xff\xff\xff"}, keys...)
		for i := 0; i < 20; i++ {
			probes = append(probes, randKey())
		}
		for _, k := range keys {
			probes = append(probes, k[:len(k)-1], k+"\x00", k+"\xff")
		}
		for _, p := range probes {
			gl, gt, gok, err := searchBlock(block, p)
			wl, wt, wok := linear(recs, p)
			if gl != wl || gt != wt || gok != wok || err != nil {
				t.Fatalf("trial %d, keys %q: searchBlock(%q) = %v %v %v %v, linear scan %v %v %v",
					trial, keys, p, gl, gt, gok, err, wl, wt, wok)
			}
		}
	}
}
