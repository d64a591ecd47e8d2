package nvme

import (
	"errors"
	"math"
	"testing"
)

// The ring indices are free-running uint32 counters; Len is tail-head in
// modular arithmetic and slots index as counter % size. Both must keep
// working when the counters overflow uint32 — seed head and tail just
// below the wrap and run full fill/drain cycles across it.
func TestSQHeadTailAcrossUint32Wrap(t *testing.T) {
	q := NewSQ(4) // capacity 3
	q.head = math.MaxUint32 - 2
	q.tail = q.head
	var n uint16
	for cycle := 0; cycle < 4; cycle++ { // counters cross MaxUint32 mid-test
		if q.Len() != 0 {
			t.Fatalf("cycle %d: Len = %d, want 0 (head=%d tail=%d)", cycle, q.Len(), q.head, q.tail)
		}
		for i := 0; i < q.Cap(); i++ {
			if err := q.Push(Command{ID: n}); err != nil {
				t.Fatalf("push %d across wrap: %v", n, err)
			}
			n++
			if q.Len() != i+1 {
				t.Fatalf("Len = %d, want %d", q.Len(), i+1)
			}
		}
		if err := q.Push(Command{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("full push across wrap: err = %v, want ErrQueueFull", err)
		}
		for i := 0; i < q.Cap(); i++ {
			c, err := q.Pop()
			if err != nil {
				t.Fatalf("pop across wrap: %v", err)
			}
			if want := n - uint16(q.Cap()) + uint16(i); c.ID != want {
				t.Fatalf("FIFO across wrap: got %d, want %d", c.ID, want)
			}
		}
		if _, err := q.Pop(); !errors.Is(err, ErrQueueEmpty) {
			t.Fatalf("empty pop across wrap: err = %v, want ErrQueueEmpty", err)
		}
	}
	if q.head != q.tail || q.head >= math.MaxUint32-2 {
		t.Fatalf("counters did not cross the wrap: head=%d tail=%d", q.head, q.tail)
	}
}

func TestCQHeadTailAcrossUint32Wrap(t *testing.T) {
	q := NewCQ(3) // capacity 2
	q.head = math.MaxUint32
	q.tail = q.head
	var n uint16
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < q.Cap(); i++ {
			if err := q.Push(Completion{ID: n}); err != nil {
				t.Fatalf("push %d across wrap: %v", n, err)
			}
			n++
		}
		if err := q.Push(Completion{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("full push across wrap: err = %v, want ErrQueueFull", err)
		}
		for i := 0; i < q.Cap(); i++ {
			c, err := q.Pop()
			if err != nil {
				t.Fatalf("pop across wrap: %v", err)
			}
			if want := n - uint16(q.Cap()) + uint16(i); c.ID != want {
				t.Fatalf("FIFO across wrap: got %d, want %d", c.ID, want)
			}
		}
		if _, err := q.Pop(); !errors.Is(err, ErrQueueEmpty) {
			t.Fatalf("empty pop across wrap: err = %v, want ErrQueueEmpty", err)
		}
	}
}
