package main

// The per-layer ledger: one Go benchmark per layer's public entry point,
// all with the same request shapes (128 B fine read hot and cold, 4 KiB
// read, 4 KiB write). Run it with
//
//	go test -run '^$' -bench Ledger -benchmem -cpu 1 .
//
// from this directory. Sub-benchmark <entry> reports ledger.<entry>.ns_per_op
// and .allocs_per_op as its ns/op and allocs/op; README.md names the
// workload whose host_ns_per_op and host_allocs_per_op each entry moves.

import (
	"errors"
	"fmt"
	"testing"

	"pipette"
	"pipette/internal/blockdev"
	"pipette/internal/cluster"
	"pipette/internal/extfs"
	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/vfs"
	"pipette/internal/workload"
)

// ledgerPages is the working set, in 4 KiB pages, of every entry that
// cycles over a device or file.
const ledgerPages = 4096

func BenchmarkLedger(b *testing.B) {
	for _, e := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"nand.read_page", nandReadPage},
		{"nand.program_page", nandProgramPage},
		{"ftl.read", ftlRead},
		{"ftl.write", ftlWrite},
		{"ssd.fine128", ssdFine128},
		{"ssd.read4k", ssdRead4K},
		{"nvme.read4k", nvmeRead4K},
		{"blockdev.read4k", blockdevRead4K},
		{"pagecache.lookup", pagecacheLookup},
		{"vfs.read4k_miss", vfsRead4KMiss},
		{"vfs.write4k", vfsWrite4K},
		{"core.fine128_hot", func(b *testing.B) { coreFine128(b, true) }},
		{"core.fine128_cold", func(b *testing.B) { coreFine128(b, false) }},
		{"kv.get", kvGet},
		{"kv.put", kvPut},
		{"index.lookup_lsm", func(b *testing.B) { indexLookup(b, index.LSM) }},
		{"index.lookup_btree", func(b *testing.B) { indexLookup(b, index.BTree) }},
		{"cluster.replay", clusterReplay},
		{"sim.event", simEvent},
	} {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			e.fn(b)
		})
	}
}

// ledgerNAND is a small array: 2 channels x 2 ways, 64 pages per block.
func ledgerNAND() nand.Config {
	cfg := nand.DefaultConfig()
	cfg.Channels = 2
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 32
	cfg.PagesPerBlock = 64
	return cfg
}

func nandReadPage(b *testing.B) {
	cfg := ledgerNAND()
	a, err := nand.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = a.ReadPageInto(now, p, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func nandProgramPage(b *testing.B) {
	cfg := ledgerNAND()
	a, err := nand.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, cfg.PageSize)
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := i % cfg.PagesPerBlock
		if page == 0 && i > 0 {
			b.StopTimer() // erasing is not programming
			if now, err = a.EraseBlock(now, cfg.BlockOf(cfg.PPAOf(0, 0, 0, 0, 0))); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if now, err = a.ProgramPage(now, cfg.PPAOf(0, 0, 0, 0, page), data); err != nil {
			b.Fatal(err)
		}
	}
}

// ledgerFTL maps every logical page of a small array.
func ledgerFTL(b *testing.B) *ftl.FTL {
	b.Helper()
	arr, err := nand.New(ledgerNAND())
	if err != nil {
		b.Fatal(err)
	}
	f, err := ftl.New(arr, ftl.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for lba := uint64(0); lba < f.LogicalPages(); lba++ {
		if err := f.Preload(ftl.LBA(lba)); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func ftlRead(b *testing.B) {
	f := ledgerFTL(b)
	n := f.LogicalPages()
	buf := make([]byte, f.PageSize())
	var now sim.Time
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = f.ReadInto(now, ftl.LBA(uint64(i)%n), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// ftlWrite overwrites the full device, so garbage collection runs. Per-die
// GC can strand a die after many full-device cycles; the array is then
// rebuilt off the clock.
func ftlWrite(b *testing.B) {
	f := ledgerFTL(b)
	n := f.LogicalPages()
	data := make([]byte, f.PageSize())
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := f.Write(now, ftl.LBA(uint64(i*7)%n), data)
		if errors.Is(err, ftl.ErrNoSpace) {
			b.StopTimer()
			f, now = ledgerFTL(b), 0
			b.StartTimer()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// ledgerSSD is a controller over the small array with its first
// ledgerPages logical pages preloaded.
func ledgerSSD(b *testing.B) *ssd.Controller {
	b.Helper()
	cfg := ssd.DefaultConfig()
	cfg.NAND = ledgerNAND()
	c, err := ssd.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for lba := 0; lba < ledgerPages; lba++ {
		if err := c.FTL().Preload(ftl.LBA(lba)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func ssdFine128(b *testing.B) {
	c := ledgerSSD(b)
	region, err := hmb.New(hmb.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c.EnableHMB(region)
	lbas := []uint64{0}
	cmd := &nvme.Command{Op: nvme.OpFineRead, FineLBAs: lbas}
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lbas[0] = uint64(i % ledgerPages)
		if err := region.Info().Push(hmb.InfoRecord{LBA: lbas[0], ByteLen: 128}); err != nil {
			b.Fatal(err)
		}
		comp := c.Execute(now, cmd)
		if !comp.Ok() {
			b.Fatalf("%+v", comp)
		}
		now = comp.Done
	}
}

func ssdRead4K(b *testing.B) {
	c := ledgerSSD(b)
	cmd := &nvme.Command{Op: nvme.OpRead, Pages: 1, Data: make([]byte, c.PageSize())}
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd.LBA = uint64(i % ledgerPages)
		comp := c.Execute(now, cmd)
		if !comp.Ok() {
			b.Fatalf("%+v", comp)
		}
		now = comp.Done
	}
}

func nvmeRead4K(b *testing.B) {
	c := ledgerSSD(b)
	drv := nvme.NewDriver(c, 256, nvme.DefaultCosts())
	buf := make([]byte, c.PageSize())
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := drv.Submit(now, nvme.Command{Op: nvme.OpRead, LBA: uint64(i % ledgerPages), Pages: 1, Data: buf})
		if err != nil || !comp.Ok() {
			b.Fatalf("%+v %v", comp, err)
		}
		now = comp.Done
	}
}

func blockdevRead4K(b *testing.B) {
	c := ledgerSSD(b)
	blk, err := blockdev.New(nvme.NewDriver(c, 256, nvme.DefaultCosts()), c.PageSize(), blockdev.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lbas := []uint64{0}
	deliver := func(uint64, []byte) {}
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lbas[0] = uint64(i % ledgerPages)
		if now, _, err = blk.ReadPagesEach(now, lbas, deliver); err != nil {
			b.Fatal(err)
		}
	}
}

func pagecacheLookup(b *testing.B) {
	c, err := pagecache.New(ledgerPages, 4096, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < ledgerPages; i++ {
		if err := c.Insert(pagecache.Key{File: 1, Index: uint64(i)}, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Lookup(pagecache.Key{File: 1, Index: uint64(i % ledgerPages)}); !ok {
			b.Fatal("resident page missed")
		}
	}
}

// ledgerVFS is the block stack under a VFS with a 64-page cache, holding one
// preloaded file of ledgerPages pages.
func ledgerVFS(b *testing.B) (*vfs.VFS, *vfs.File) {
	b.Helper()
	c := ledgerSSD(b)
	drv := nvme.NewDriver(c, 256, nvme.DefaultCosts())
	blk, err := blockdev.New(drv, c.PageSize(), blockdev.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := vfs.DefaultConfig()
	cfg.PageCachePages = 64
	v, err := vfs.New(extfs.New(c), blk, cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := v.Create("ledger.dat", ledgerPages*4096, extfs.CreateOpts{Preload: true}, vfs.ReadWrite)
	if err != nil {
		b.Fatal(err)
	}
	return v, f
}

// vfsRead4KMiss strides through the file so neither the 64-page cache nor
// readahead holds the next page.
func vfsRead4KMiss(b *testing.B) {
	_, f := ledgerVFS(b)
	buf := make([]byte, 4096)
	var now sim.Time
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*1021%ledgerPages) * 4096
		if now, err = f.ReadFull(now, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func vfsWrite4K(b *testing.B) {
	_, f := ledgerVFS(b)
	data := make([]byte, 4096)
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, done, err := f.WriteAt(now, data, int64(i%ledgerPages)*4096)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// coreFine128 reads 128 B through the pipette facade's fine path: hot
// cycles over 1024 pages the fine cache holds, cold over 30,000 pages with
// the fine cache off, so every read builds and issues a fine command.
func coreFine128(b *testing.B, hot bool) {
	sys, err := pipette.New(pipette.Options{
		CapacityBytes:    512 << 20,
		PageCacheBytes:   32 << 20,
		FineCacheBytes:   8 << 20,
		DisableFineCache: !hot,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.CreateFile("ledger.dat", 128<<20, true); err != nil {
		b.Fatal(err)
	}
	f, err := sys.Open("ledger.dat", pipette.ReadWrite|pipette.FineGrained)
	if err != nil {
		b.Fatal(err)
	}
	span := 30_000
	if hot {
		span = 1024
	}
	buf := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%span)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// ledgerKV is a hash-indexed store of 10,000 records with caches an eighth
// of the data, as in the kv-update workload.
func ledgerKV(b *testing.B) (*pipette.KV, []string) {
	b.Helper()
	const records = 10_000
	dataset := int64(records * kvAvgRecordBytes)
	sys, err := pipette.New(pipette.Options{
		CapacityBytes:  4 * dataset,
		PageCacheBytes: dataset / 8,
		FineCacheBytes: int(dataset / 8),
	})
	if err != nil {
		b.Fatal(err)
	}
	store, err := sys.OpenKV(pipette.KVOptions{SegmentBytes: kvSegmentBytes})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, records)
	val := make([]byte, 512)
	for k := range keys {
		keys[k] = fmt.Sprintf("user%010d", k)
		if err := store.Put(keys[k], kvValue(val, uint64(k), 0)); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		b.Fatal(err)
	}
	return store, keys
}

func kvGet(b *testing.B) {
	store, keys := ledgerKV(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Get(keys[i*7919%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func kvPut(b *testing.B) {
	store, keys := ledgerKV(b)
	val := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i * 7919 % len(keys)
		if err := store.Put(keys[k], kvValue(val, uint64(k), uint32(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// indexLookup resolves present keys in an on-device index of 10,000 keys
// built over the block stack with fine-grained reads.
func indexLookup(b *testing.B, kind index.Kind) {
	v, _ := ledgerVFS(b)
	eng, err := index.New(kv.VFSBackend{V: v}, index.Config{Kind: kind, Fine: true})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 10_000)
	var now sim.Time
	for i := range keys {
		keys[i] = fmt.Sprintf("user%010d", i)
		if now, err = eng.Insert(now, keys[i], index.Loc{Off: int64(i) * 320, ValLen: 256}); err != nil {
			b.Fatal(err)
		}
	}
	for {
		ran, done, err := eng.Tick(now)
		if err != nil {
			b.Fatal(err)
		}
		now = done
		if !ran {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, done, err := eng.Lookup(now, keys[i*7919%len(keys)])
		if err != nil || !ok {
			b.Fatalf("lookup %d: ok=%v err=%v", i, ok, err)
		}
		now = done
	}
}

// clusterReplay replays a 90% read stream over a 4-shard, 2-replica tier
// of 2,048 records; one op is one request.
func clusterReplay(b *testing.B) {
	c, err := cluster.New(cluster.Config{Shards: 4, Replicas: 2, Tenants: 1}, func(int) cluster.ShardConfig {
		return cluster.ShardConfig{DatasetBytes: 4 << 20, FineReads: true}
	})
	if err != nil {
		b.Fatal(err)
	}
	const records = 2048
	keys := make([]string, records)
	vals := make([][]byte, records)
	for k := range keys {
		keys[k] = kv.NamespaceKey(0, fmt.Sprintf("user%08d", k))
		vals[k] = kvValue(make([]byte, 512), uint64(k), 0)
		if err := c.Load(keys[k], vals[k]); err != nil {
			b.Fatal(err)
		}
	}
	start, err := c.SealLoad()
	if err != nil {
		b.Fatal(err)
	}
	arr, err := workload.NewPoisson(30_000, 99)
	if err != nil {
		b.Fatal(err)
	}
	i := 0
	next := func() cluster.Request {
		i++
		k := i * 7919 % records
		req := cluster.Request{Key: keys[k]}
		if i%10 == 0 {
			req.Write, req.Val = true, vals[k]
		}
		return req
	}
	b.ResetTimer()
	if _, err := c.Replay(next, b.N, cluster.ReplayOpts{Arrivals: arr, Start: start, TickEvery: 64}); err != nil {
		b.Fatal(err)
	}
}

// simEvent schedules and runs one event at a time on an engine holding 64
// pending events, the open-loop runner's steady state.
func simEvent(b *testing.B) {
	eng := sim.NewEngine()
	for i := 0; i < 63; i++ {
		eng.At(sim.Time(1)<<40+sim.Time(i), func(sim.Time) {})
	}
	n := 0
	var fn func(sim.Time)
	fn = func(sim.Time) {
		if n++; n < b.N {
			eng.After(sim.Time(1+n&15), fn)
		}
	}
	eng.At(0, fn)
	b.ResetTimer()
	eng.Run()
}
