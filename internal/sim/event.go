package sim

// This file is the discrete-event core: a binary-heap event queue ordered
// by (time, sequence), generic over its payload, and an Engine that pops
// callbacks in that order while advancing a virtual clock. The sequence
// tiebreak makes execution order — and therefore every downstream output
// byte — a pure function of the push calls, independent of host
// scheduling or worker count.

// event is one scheduled payload.
type event[E any] struct {
	at  Time
	seq uint64
	ev  E
}

// before orders events by (time, seq): earlier time first, earlier push
// order breaking ties.
func (e *event[E]) before(o *event[E]) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EventQueue is a min-heap of payloads keyed by (Time, seq). The zero
// value is an empty queue ready to use. Push and Pop reuse the backing
// array, so a warmed-up queue's hot path allocates nothing.
//
// Like every sim type, an EventQueue belongs to one single-threaded
// simulated system.
type EventQueue[E any] struct {
	heap []event[E]
	seq  uint64
}

// Len reports scheduled events not yet popped.
func (q *EventQueue[E]) Len() int { return len(q.heap) }

// Push schedules ev at time at. Events pushed with equal times pop in push
// order.
func (q *EventQueue[E]) Push(at Time, ev E) {
	q.heap = append(q.heap, event[E]{at: at, seq: q.seq, ev: ev})
	q.seq++
	q.up(len(q.heap) - 1)
}

// Pop removes and returns the earliest event. ok is false on an empty
// queue.
func (q *EventQueue[E]) Pop() (at Time, ev E, ok bool) {
	if len(q.heap) == 0 {
		return 0, ev, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = event[E]{} // drop any reference the payload holds
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top.at, top.ev, true
}

func (q *EventQueue[E]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(&q.heap[parent]) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue[E]) down(i int) {
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

// Engine runs a discrete-event simulation of callbacks: an event queue of
// funcs plus the current time. Callbacks scheduled with At/After run in
// (time, schedule-order) order; each pop advances the clock to the event's
// time before invoking it, so a callback observes its scheduled time and
// may schedule more events (never in the past — At clamps to the current
// time).
type Engine struct {
	now Time
	q   EventQueue[func(Time)]
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// At schedules fn to run at time t. Times in the past clamp to the current
// time, so a completion callback can always re-arm work "immediately".
func (e *Engine) At(t Time, fn func(Time)) {
	e.q.Push(max(t, e.now), fn)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func(Time)) {
	e.q.Push(e.now+max(d, 0), fn)
}

// Run pops and runs events, advancing the clock to each, until none
// remain.
func (e *Engine) Run() {
	for {
		at, fn, ok := e.q.Pop()
		if !ok {
			return
		}
		e.now = at
		fn(at)
	}
}
