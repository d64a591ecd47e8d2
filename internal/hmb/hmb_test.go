package hmb

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{DataBytes: 1 << 16}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{DataBytes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInfoRingProtocol(t *testing.T) {
	r := NewInfoRing(4) // capacity 3
	if r.Cap() != 3 || r.Pending() != 0 {
		t.Fatalf("fresh ring cap=%d pending=%d", r.Cap(), r.Pending())
	}
	for i := 0; i < 3; i++ {
		if err := r.Push(InfoRecord{LBA: uint64(i), Dest: i * 128}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := r.Push(InfoRecord{}); !errors.Is(err, ErrRingFull) {
		t.Fatalf("full push err = %v", err)
	}
	// Device consumes in order and advances the head.
	for i := 0; i < 3; i++ {
		rec, err := r.Consume()
		if err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		if rec.LBA != uint64(i) || rec.Dest != i*128 {
			t.Fatalf("consume %d got %+v", i, rec)
		}
		if r.Head() != uint32(i+1) {
			t.Fatalf("head = %d after %d consumes", r.Head(), i+1)
		}
	}
	if _, err := r.Consume(); !errors.Is(err, ErrRingEmpty) {
		t.Fatalf("empty consume err = %v", err)
	}
}

func TestInfoRingWrapProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewInfoRing(4)
		var pushed, consumed uint64
		for _, isPush := range ops {
			if isPush {
				if r.Push(InfoRecord{LBA: pushed}) == nil {
					pushed++
				}
			} else if rec, err := r.Consume(); err == nil {
				if rec.LBA != consumed {
					return false
				}
				consumed++
			}
		}
		return consumed <= pushed && r.Pending() == int(pushed-consumed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionReadWrite(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("fine-grained")
	if err := r.WriteAt(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := r.ReadAt(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read != written")
	}
	// Out-of-range accesses are rejected.
	total := smallConfig().DataBytes + TempBufBytes
	if err := r.WriteAt(total-4, data); err == nil {
		t.Error("overrun write accepted")
	}
	if err := r.ReadAt(-1, got); err == nil {
		t.Error("negative read accepted")
	}
}

func TestRegionSlice(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Slice(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	copy(s, "hello")
	got := make([]byte, 5)
	if err := r.ReadAt(10, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("slice write not visible: %q", got)
	}
	// Full-capacity slice must be rejected only if it overruns.
	if _, err := r.Slice(0, smallConfig().DataBytes+TempBufBytes+1); err == nil {
		t.Error("overrun slice accepted")
	}
}

func TestAllocTempRotation(t *testing.T) {
	cfg := smallConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	first, err := r.AllocTemp(512)
	if err != nil {
		t.Fatal(err)
	}
	if !r.InTempArea(first) {
		t.Fatalf("temp offset %d not in temp area", first)
	}
	if r.InTempArea(0) {
		t.Fatal("data-area offset classified as temp")
	}
	seen[first] = true
	wrapped := false
	for i := 0; i < TempBufBytes/512+20; i++ {
		off, err := r.AllocTemp(512)
		if err != nil {
			t.Fatal(err)
		}
		if !r.InTempArea(off) {
			t.Fatalf("alloc %d outside temp area", off)
		}
		if off == first && i > 0 {
			wrapped = true
		}
		if off+512 > cfg.DataBytes+TempBufBytes {
			t.Fatalf("temp slot overruns region: %d", off)
		}
	}
	if !wrapped {
		t.Error("temp cursor never wrapped around a small area")
	}
	// Oversized and zero allocations rejected.
	if _, err := r.AllocTemp(TempSlot + 1); err == nil {
		t.Error("oversized temp alloc accepted")
	}
	if _, err := r.AllocTemp(0); err == nil {
		t.Error("zero temp alloc accepted")
	}
}

func TestDataSize(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.DataSize() != smallConfig().DataBytes {
		t.Fatalf("DataSize = %d", r.DataSize())
	}
	if r.Info() == nil || r.Info().Cap() != InfoSlots-1 {
		t.Fatal("info ring missizing")
	}
}
