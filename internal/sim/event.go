package sim

// This file is the discrete-event core: a binary-heap event queue ordered
// by (time, sequence) and an Engine that pops events in that order while
// advancing a virtual clock. The sequence tiebreak makes execution order —
// and therefore every downstream output byte — a pure function of the
// schedule calls, independent of host scheduling or worker count.

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func(Time)
}

// before orders events by (time, seq): earlier time first, earlier
// scheduling order breaking ties.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EventQueue is a min-heap of scheduled callbacks keyed by (Time, seq).
// The zero value is an empty queue ready to use. Push and Pop reuse the
// backing array, so a warmed-up queue's hot path allocates nothing.
//
// Like every sim type, an EventQueue belongs to one single-threaded
// simulated system.
type EventQueue struct {
	heap []event
	seq  uint64
}

// Len reports scheduled events not yet popped.
func (q *EventQueue) Len() int { return len(q.heap) }

// Push schedules fn at time at. Events pushed with equal times run in push
// order.
func (q *EventQueue) Push(at Time, fn func(Time)) {
	q.heap = append(q.heap, event{at: at, seq: q.seq, fn: fn})
	q.seq++
	q.up(len(q.heap) - 1)
}

// Pop removes and returns the earliest event. ok is false on an empty
// queue.
func (q *EventQueue) Pop() (at Time, fn func(Time), ok bool) {
	if len(q.heap) == 0 {
		return 0, nil, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = event{} // drop the fn reference
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top.at, top.fn, true
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(&q.heap[parent]) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.heap[l].before(&q.heap[least]) {
			least = l
		}
		if r < n && q.heap[r].before(&q.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
}

// Engine runs a discrete-event simulation: a clock plus an event queue.
// Callbacks scheduled with At/After run in (time, schedule-order) order;
// each pop advances the clock to the event's time before invoking it, so
// a callback observes Now() == its scheduled time and may schedule more
// events (never in the past — At clamps to the current time).
type Engine struct {
	clock Clock
	q     EventQueue
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// At schedules fn to run at time t. Times in the past clamp to Now(), so
// a completion callback can always re-arm work "immediately".
func (e *Engine) At(t Time, fn func(Time)) {
	if now := e.clock.Now(); t < now {
		t = now
	}
	e.q.Push(t, fn)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func(Time)) {
	if d < 0 {
		d = 0
	}
	e.q.Push(e.clock.Now()+d, fn)
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event ran.
func (e *Engine) Step() bool {
	at, fn, ok := e.q.Pop()
	if !ok {
		return false
	}
	e.clock.AdvanceTo(at)
	fn(e.clock.Now())
	return true
}

// Run steps until no events remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}
