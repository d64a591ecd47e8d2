package sim

import (
	"testing"
)

func TestEventQueueOrdersByTime(t *testing.T) {
	var q EventQueue[func(Time)]
	var got []Time
	times := []Time{50, 10, 30, 20, 40, 5, 45}
	for _, at := range times {
		at := at
		q.Push(at, func(now Time) { got = append(got, now) })
	}
	if q.Len() != len(times) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(times))
	}
	for {
		at, fn, ok := q.Pop()
		if !ok {
			break
		}
		fn(at)
	}
	want := []Time{5, 10, 20, 30, 40, 45, 50}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEventQueueTiebreakIsPushOrder(t *testing.T) {
	var q EventQueue[func(Time)]
	var got []int
	// Many events at the same instant, plus decoys around them: equal
	// times must pop in push order (the determinism contract).
	for i := 0; i < 32; i++ {
		i := i
		q.Push(100, func(Time) { got = append(got, i) })
	}
	q.Push(99, func(Time) {})
	q.Push(101, func(Time) {})
	for {
		_, fn, ok := q.Pop()
		if !ok {
			break
		}
		fn(0)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events popped out of push order: got[%d] = %d", i, v)
		}
	}
}

func TestEventQueuePopEmpty(t *testing.T) {
	var q EventQueue[func(Time)]
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestEngineRunsEventsAndAdvancesClock(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(30, func(now Time) {
		if now != 30 {
			t.Errorf("callback at 30 saw now = %d", now)
		}
		order = append(order, "c")
	})
	e.At(10, func(now Time) {
		order = append(order, "a")
		// Schedule from inside a callback: lands between the others.
		e.At(20, func(Time) { order = append(order, "b") })
	})
	e.Run()
	if e.now != 30 {
		t.Fatalf("Now = %d after run, want 30", e.now)
	}
	want := "abc"
	var got string
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("execution order %q, want %q", got, want)
	}
}

func TestEngineAtClampsToNow(t *testing.T) {
	e := NewEngine()
	e.At(100, func(now Time) {
		// Scheduling "in the past" runs at the current time instead.
		e.At(5, func(t2 Time) {
			if t2 != 100 {
				t.Errorf("past event ran at %d, want clamp to 100", t2)
			}
		})
	})
	e.Run()
	if e.now != 100 {
		t.Fatalf("Now = %d, want 100", e.now)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var ran Time = -1
	e.After(40, func(now Time) { ran = now })
	e.Run()
	if ran != 40 {
		t.Fatalf("After(40) ran at %d", ran)
	}
}

// TestEventQueueHotPathAllocFree asserts the PR 2 standard: once the heap
// is warm, push/pop cycles allocate nothing. (The callback itself is
// pre-bound; closure capture allocates at the caller, not in the queue.)
func TestEventQueueHotPathAllocFree(t *testing.T) {
	var q EventQueue[func(Time)]
	fn := func(Time) {}
	// Warm the backing array.
	for i := 0; i < 256; i++ {
		q.Push(Time(i), fn)
	}
	for {
		if _, _, ok := q.Pop(); !ok {
			break
		}
	}
	var at Time
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			q.Push(at+Time(i%7), fn)
			at++
		}
		for {
			if _, _, ok := q.Pop(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkEventPush(b *testing.B) {
	var q EventQueue[func(Time)]
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Time(i^(i<<3)), fn)
		if q.Len() >= 4096 {
			b.StopTimer()
			for {
				if _, _, ok := q.Pop(); !ok {
					break
				}
			}
			b.StartTimer()
		}
	}
}

func BenchmarkEventPop(b *testing.B) {
	var q EventQueue[func(Time)]
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Len() == 0 {
			b.StopTimer()
			for j := 0; j < 4096; j++ {
				q.Push(Time(j^(j<<5)), fn)
			}
			b.StartTimer()
		}
		q.Pop()
	}
}

func BenchmarkEventMixed(b *testing.B) {
	var q EventQueue[func(Time)]
	fn := func(Time) {}
	// Steady-state mix: a queue holding in-flight completions with
	// interleaved push/pop, the open-loop runner's actual access pattern.
	for i := 0; i < 64; i++ {
		q.Push(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var at Time
	for i := 0; i < b.N; i++ {
		q.Push(at+Time(i&15), fn)
		at++
		q.Pop()
	}
}
