package hmb

import (
	"bytes"
	"errors"
	"math/bits"
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
	one := make([]byte, 1)
	for _, c := range []struct {
		name string
		err  error
	}{
		{"overrun write", r.WriteAt(total-4, data)},
		{"write at -1", r.WriteAt(-1, one)},
		{"write past the end", r.WriteAt(total, one)},
		{"negative read", r.ReadAt(-1, got)},
		{"read past the end", r.ReadAt(total, one)},
		{"read overrunning the end", r.ReadAt(total-1, make([]byte, 2))},
		{"flip at -1", r.FlipBit(-1, 0)},
		{"flip past the end", r.FlipBit(total, 0)},
		{"flip bit 8", r.FlipBit(0, 8)},
	} {
		if c.err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// The last byte and an empty transfer at the end are in range.
	if err := r.WriteAt(total-1, one); err != nil {
		t.Errorf("write of the last byte: %v", err)
	}
	if err := r.ReadAt(total, nil); err != nil {
		t.Errorf("empty read at the end: %v", err)
	}
	if err := r.FlipBit(total-1, 7); err != nil {
		t.Errorf("flip of the last byte's top bit: %v", err)
	}
}

func TestRegionUnwrittenReadsZero(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := smallConfig().DataBytes + TempBufBytes
	got := make([]byte, total)
	for i := range got {
		got[i] = 0xa5
	}
	if err := r.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexFunc(got, func(c rune) bool { return c != 0 }); i >= 0 {
		t.Fatalf("never-written byte %d reads %#x, want 0", i, got[i])
	}
	// A write leaves its neighbours zero.
	if err := r.WriteAt(4096, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	around := make([]byte, 5)
	if err := r.ReadAt(4095, around); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(around, []byte{0, 1, 2, 3, 0}) {
		t.Fatalf("bytes around a write read %v", around)
	}
}

// TestRegionAcrossAreas: the Data and TempBuf Areas are one address range,
// so a transfer may straddle their boundary.
func TestRegionAcrossAreas(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	boundary := r.DataSize()
	if r.InTempArea(boundary-1) || !r.InTempArea(boundary) {
		t.Fatalf("boundary at %d misclassified", boundary)
	}
	data := []byte("straddles the data/tempbuf boundary")
	off := boundary - len(data)/2
	if err := r.WriteAt(off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := r.ReadAt(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q across the boundary, wrote %q", got, data)
	}
	// Each half reads back from its own area.
	tail := make([]byte, len(data)-len(data)/2)
	if err := r.ReadAt(boundary, tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, data[len(data)/2:]) {
		t.Fatalf("TempBuf half reads %q", tail)
	}
}

func TestRegionFlipBit(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("payload")
	if err := r.WriteAt(200, want); err != nil {
		t.Fatal(err)
	}
	for bit := uint(0); bit < 8; bit++ {
		if err := r.FlipBit(203, bit); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if err := r.ReadAt(200, got); err != nil {
			t.Fatal(err)
		}
		flipped := 0
		for i := range got {
			flipped += bits.OnesCount8(got[i] ^ want[i])
		}
		if flipped != 1 || got[3] != want[3]^1<<bit {
			t.Fatalf("FlipBit(203, %d): %q, %d bits differ from %q", bit, got, flipped, want)
		}
		if err := r.FlipBit(203, bit); err != nil { // and back
			t.Fatal(err)
		}
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
