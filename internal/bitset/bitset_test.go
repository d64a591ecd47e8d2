package bitset

import "testing"

// count reports the number of set bits, by NextSet iteration.
func count(s Set) int {
	n := 0
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		n++
	}
	return n
}

func TestSetClearGetCount(t *testing.T) {
	t.Parallel()
	s := New(200)
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 127, 128, 199} {
		if s.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := count(s); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	s.Clear(64)
	if s.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := count(s); got != 6 {
		t.Fatalf("count after Clear = %d, want 6", got)
	}
}

// TestNextSetOrder checks the property the FTL's victim scans rely on:
// NextSet iteration visits set bits in ascending numeric order, across word
// boundaries, and terminates with -1.
func TestNextSetOrder(t *testing.T) {
	t.Parallel()
	s := New(300)
	want := []int{0, 5, 63, 64, 65, 191, 192, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if s.NextSet(300) != -1 || s.NextSet(1000) != -1 {
		t.Fatal("NextSet past Len should be -1")
	}
	if empty := New(128); empty.NextSet(0) != -1 {
		t.Fatal("NextSet on empty set should be -1")
	}
	if s.NextSet(-5) != 0 {
		t.Fatal("NextSet with negative from should clamp to 0")
	}
}
