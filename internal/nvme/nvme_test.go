package nvme

import (
	"errors"
	"testing"
	"testing/quick"

	"pipette/internal/sim"
)

func TestOpcodeAndStatusStrings(t *testing.T) {
	ops := map[Opcode]string{OpFlush: "Flush", OpWrite: "Write", OpRead: "Read",
		OpFineRead: "FineRead"}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if StatusOK.String() != "OK" || StatusUnmapped.String() != "Unmapped" {
		t.Error("status strings wrong")
	}
	if !(Completion{Status: StatusOK}).Ok() || (Completion{Status: StatusInternal}).Ok() {
		t.Error("Ok() wrong")
	}
}

func TestSQFIFOAndWrap(t *testing.T) {
	q := NewSQ(4) // capacity 3
	if q.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", q.Cap())
	}
	// Several full fill/drain cycles to cross the wrap point.
	var n uint16
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < q.Cap(); i++ {
			if err := q.Push(Command{ID: n}); err != nil {
				t.Fatalf("push %d: %v", n, err)
			}
			n++
		}
		if err := q.Push(Command{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overfull push err = %v", err)
		}
		for i := 0; i < q.Cap(); i++ {
			c, err := q.Pop()
			if err != nil {
				t.Fatalf("pop: %v", err)
			}
			if want := n - uint16(q.Cap()) + uint16(i); c.ID != want {
				t.Fatalf("FIFO violated: got %d, want %d", c.ID, want)
			}
		}
		if _, err := q.Pop(); !errors.Is(err, ErrQueueEmpty) {
			t.Fatalf("empty pop err = %v", err)
		}
	}
}

func TestCQFIFO(t *testing.T) {
	q := NewCQ(3)
	if err := q.Push(Completion{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Completion{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Completion{ID: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want full", err)
	}
	c, _ := q.Pop()
	if c.ID != 1 {
		t.Fatalf("popped %d, want 1", c.ID)
	}
}

func TestQueueSizePanics(t *testing.T) {
	for _, f := range []func(){func() { NewSQ(1) }, func() { NewCQ(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("undersized queue did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: a random interleaving of pushes and pops preserves FIFO order.
func TestSQOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewSQ(8)
		var pushed, popped uint16
		for _, isPush := range ops {
			if isPush {
				if q.Push(Command{ID: pushed}) == nil {
					pushed++
				}
			} else {
				if c, err := q.Pop(); err == nil {
					if c.ID != popped {
						return false
					}
					popped++
				}
			}
		}
		return popped <= pushed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// echoDevice completes every command after a fixed service time.
type echoDevice struct {
	service sim.Time
	seen    []Command
}

func (d *echoDevice) Execute(now sim.Time, cmd *Command) Completion {
	d.seen = append(d.seen, *cmd)
	return Completion{Status: StatusOK, Done: now + d.service, BytesMoved: 4096}
}

func TestDriverSubmitTiming(t *testing.T) {
	dev := &echoDevice{service: 10 * sim.Microsecond}
	costs := DefaultCosts()
	d := NewDriver(dev, 16, costs)

	comp, err := d.Submit(100*sim.Microsecond, Command{Op: OpRead, LBA: 7, Pages: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := 100*sim.Microsecond + DoorbellCost + FetchCost + dev.service + CompletionCost
	if comp.Done != want {
		t.Fatalf("Done = %v, want %v", comp.Done, want)
	}
	if !comp.Ok() || comp.BytesMoved != 4096 {
		t.Fatalf("completion = %+v", comp)
	}
	if len(dev.seen) != 1 || dev.seen[0].LBA != 7 {
		t.Fatalf("device saw %+v", dev.seen)
	}
}

func TestDriverAssignsIDs(t *testing.T) {
	dev := &echoDevice{}
	d := NewDriver(dev, 8, Costs{})
	for i := 0; i < 5; i++ {
		comp, err := d.Submit(0, Command{Op: OpFlush})
		if err != nil {
			t.Fatal(err)
		}
		if comp.ID != uint16(i) {
			t.Fatalf("completion ID = %d, want %d", comp.ID, i)
		}
	}
	sub, done := d.Stats()
	if sub != 5 || done != 5 {
		t.Fatalf("stats = %d/%d", sub, done)
	}
}

func TestCostsTotal(t *testing.T) {
	// On a device that executes instantly, a command's latency is the fixed
	// per-command transport cost: doorbell, fetch and completion.
	d := NewDriver(&echoDevice{}, 8, DefaultCosts())
	comp, err := d.Submit(0, Command{Op: OpFlush})
	if err != nil {
		t.Fatal(err)
	}
	if want := DoorbellCost + FetchCost + CompletionCost; comp.Done != want || want != 1500*sim.Nanosecond {
		t.Fatalf("Done = %v, want %v (1.5us)", comp.Done, want)
	}
}

// TestDriverPoolHygiene: after Submit returns, neither the pooled in-flight
// entries nor the SQ slots reference the finished command's Data or
// FineLBAs, and a Submit rejected with ErrQueueFull leaves nothing behind
// that the next Submit could return in place of its own completion.
func TestDriverPoolHygiene(t *testing.T) {
	const service = sim.Microsecond
	d := NewDriver(&echoDevice{service: service}, 2, Costs{}) // one usable slot
	if _, err := d.Submit(0, Command{Op: OpRead, Pages: 1, Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(0, Command{Op: OpFineRead, FineLBAs: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	pooled := 0
	for ic := d.mq.free; ic != nil; ic = ic.next {
		pooled++
		if ic.cmd.Data != nil || ic.cmd.FineLBAs != nil {
			t.Fatalf("pooled in-flight entry still holds Data (%d B) / FineLBAs %v", len(ic.cmd.Data), ic.cmd.FineLBAs)
		}
	}
	if pooled == 0 {
		t.Fatal("no pooled in-flight entry to inspect")
	}
	for i, c := range d.mq.pairs[0].sq.entries {
		if c.Data != nil || c.FineLBAs != nil {
			t.Fatalf("SQ slot %d still holds Data (%d B) / FineLBAs %v", i, len(c.Data), c.FineLBAs)
		}
	}

	// Fill the only slot behind the driver's back: the next Submit is
	// rejected, and the one after it (once the slot drains) must return
	// its own completion.
	var side Completion
	if err := d.mq.Submit(5, Command{Op: OpFlush}, func(c Completion) { side = c }); err != nil {
		t.Fatal(err)
	}
	if c, err := d.Submit(7, Command{Op: OpFlush}); !errors.Is(err, ErrQueueFull) || c != (Completion{}) {
		t.Fatalf("Submit on a full queue = %+v, %v; want zero completion, ErrQueueFull", c, err)
	}
	d.eng.Run()
	if side.ID != 2 || side.Done != 5+DoorbellCost+FetchCost+service+CompletionCost {
		t.Fatalf("side completion = %+v", side)
	}
	c, err := d.Submit(100, Command{Op: OpFlush})
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 + DoorbellCost + FetchCost + service + CompletionCost; c.ID != 3 || c.Done != want {
		t.Fatalf("Submit after ErrQueueFull = %+v, want ID 3 done at %v", c, want)
	}
}
