// Package sim implements a deterministic discrete-event simulator.
//
// The simulator advances a virtual global clock by executing scheduled
// events in (time, sequence) order. All scheduling happens through a single
// Engine; there are no goroutines, so a run is a pure function of the
// initial schedule and the seed of the engine's random source. This is the
// substrate on which the paper's eventually-synchronous system model
// (internal/simnet) is built.
//
// The engine owns all event storage: scheduling reuses slots from a free
// list and the ready queue is a specialized 4-ary min-heap of slot indices,
// so the steady state (schedule, cancel, execute — the simulator's entire
// inner loop) allocates nothing. Handles returned by Schedule/After are
// generation-checked values, making a stale Cancel on an already-executed
// event a safe no-op even after its slot has been reused.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// DeliverySink receives payload-carrying events scheduled with
// ScheduleDelivery. One sink serves the whole engine: the network layer
// registers a single closure at construction instead of allocating one
// closure per message in flight. from/to address the endpoints, aux carries
// a small caller-defined integer (simnet uses it for the interned
// message-type ID), and payload is the message itself.
type DeliverySink func(from, to int32, aux int64, payload any)

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// slots is the engine-owned event storage; free heads the free-slot
	// list threaded through slot.next (-1 when empty). heap holds the
	// indices of scheduled slots ordered by (at, seq).
	slots []slot
	free  int32
	heap  []int32

	// mvecs is the engine-owned storage for multicast recipient vectors
	// (see multicast.go); mfree stacks the indices of vectors not currently
	// attached to a scheduled multicast slot. Vectors keep their capacity
	// when released, so steady-state broadcasting allocates nothing.
	// multiExtra counts multicast recipients beyond the one the heap entry
	// represents, so Pending can report undelivered deliveries — the same
	// number a unicast schedule would — in O(1).
	// vslab is the unused tail of the slab new vectors are carved from.
	mvecs      [][]multiEntry
	mfree      []int32
	vslab      []multiEntry
	multiExtra int

	sink DeliverySink

	// executed counts events run so far (for budget enforcement and tests).
	executed uint64
	// limit, when non-zero, bounds the number of executed events as a
	// runaway-schedule backstop.
	limit uint64
}

// slot is one unit of event storage. A slot is either scheduled (present in
// the heap, heapIdx ≥ 0) or free (on the free list via next, heapIdx = -1);
// gen increments every time the slot leaves the scheduled state, which is
// what invalidates stale Event handles.
type slot struct {
	at      time.Duration
	seq     uint64
	fn      func()
	payload any
	aux     int64
	from    int32
	to      int32
	gen     uint32
	heapIdx int32
	next    int32
	// multi indexes the slot's recipient vector in Engine.mvecs when the
	// slot is a multicast (-1 otherwise); mpos is the next vector entry to
	// deliver. While scheduled, (at, seq) mirror the entry at mpos, so the
	// heap orders a multicast by its earliest undelivered recipient.
	multi int32
	mpos  int32
	sink  bool
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), free: -1}
}

// Now returns the current virtual global time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Everything in a
// simulation that needs randomness must draw from this source (or a source
// derived from it) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// SetEventLimit bounds the total number of events the engine will execute;
// Run methods return early once the limit is hit. Zero means no limit.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetDeliverySink registers the engine's delivery sink. Exactly one caller
// owns the sink (the simulated network); a second registration always means
// two networks are sharing one engine, which would misroute every delivery,
// so it panics.
func (e *Engine) SetDeliverySink(s DeliverySink) {
	if e.sink != nil {
		panic("sim: delivery sink already set (two networks on one engine?)")
	}
	e.sink = s
}

// Event is a handle to a scheduled callback, valid until the event executes
// or is canceled. The zero value is inert: Cancel and Pending on it are
// safe no-ops. Handles are generation-checked, so holding one past its
// event's execution is harmless even though the engine reuses the slot.
type Event struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from executing and removes it from the event
// queue immediately. Timer-re-arm-heavy protocols cancel an event per
// SetTimer, so a canceled event must not linger in the heap: it would bloat
// the queue and make Pending lie. Canceling an already-executed or
// already-canceled event is a no-op.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.heapIdx < 0 {
		return
	}
	e.heapRemove(s.heapIdx)
	e.release(ev.idx)
}

// Pending reports whether the event is still scheduled (not yet executed or
// canceled).
func (ev Event) Pending() bool {
	if ev.e == nil {
		return false
	}
	s := &ev.e.slots[ev.idx]
	return s.gen == ev.gen && s.heapIdx >= 0
}

// At returns the virtual time the event is scheduled for, or 0 once it has
// executed or been canceled.
func (ev Event) At() time.Duration {
	if !ev.Pending() {
		return 0
	}
	return ev.e.slots[ev.idx].at
}

// alloc takes a slot from the free list, growing storage only when every
// slot is scheduled (amortized; the steady state never grows).
//
//repro:hotpath
func (e *Engine) alloc() int32 {
	if e.free >= 0 {
		si := e.free
		e.free = e.slots[si].next
		return si
	}
	e.slots = append(e.slots, slot{multi: -1})
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list, bumping its generation so stale
// handles can never touch the next occupant, and dropping references so the
// slot does not pin callbacks or payloads for the GC.
//
//repro:hotpath
func (e *Engine) release(si int32) {
	s := &e.slots[si]
	s.gen++
	s.fn = nil
	s.payload = nil
	s.heapIdx = -1
	s.next = e.free
	e.free = si
}

// schedule places a freshly-populated slot into the queue and returns its
// handle. The caller must have set every payload field; schedule assigns
// the (at, seq) ordering key.
//
//repro:hotpath
func (e *Engine) schedule(at time.Duration, si int32) Event {
	if at < e.now {
		// Scheduling in the past always indicates a bug in the model,
		// never a recoverable condition.
		e.release(si)
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	s := &e.slots[si]
	s.at = at
	s.seq = e.seq
	e.heapPush(si)
	return Event{e: e, idx: si, gen: s.gen}
}

// Schedule runs fn at virtual time at. Scheduling in the past (before Now)
// panics.
//
//repro:hotpath
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	si := e.alloc()
	s := &e.slots[si]
	s.fn = fn
	s.sink = false
	return e.schedule(at, si)
}

// After runs fn d from now. Negative d is treated as zero.
//
//repro:hotpath
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleDelivery schedules a payload-carrying event: at time at the
// engine's delivery sink is invoked with (from, to, aux, payload). This is
// the closure-free path for message traffic — the hot loop of every
// simulation — and requires SetDeliverySink to have been called.
//
//repro:hotpath
func (e *Engine) ScheduleDelivery(at time.Duration, from, to int32, aux int64, payload any) Event {
	si := e.alloc()
	s := &e.slots[si]
	s.sink = true
	s.from = from
	s.to = to
	s.aux = aux
	s.payload = payload
	return e.schedule(at, si)
}

// Stop makes the current Run call return after the current event finishes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It returns false when no events remain.
//
// The heap holds exactly the live events — Cancel removes eagerly and
// execution pops before running the callback — so the head needs no
// liveness check (the invariant the pooled queue makes structural).
//
//repro:hotpath
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	if e.slots[e.heap[0]].multi >= 0 {
		return e.stepMulticast(e.heap[0])
	}
	si := e.popMin()
	s := &e.slots[si]
	if s.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", s.at, e.now))
	}
	e.now = s.at
	e.executed++
	// Copy the callback out and recycle the slot before invoking: the
	// callback may schedule (and the engine may hand it this very slot),
	// and growth of e.slots would invalidate s.
	fn, isSink := s.fn, s.sink
	from, to, aux, payload := s.from, s.to, s.aux, s.payload
	e.release(si)
	if isSink {
		e.sink(from, to, aux, payload)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains, the time horizon passes, Stop
// is called, or the event limit is reached. Events scheduled exactly at the
// horizon still run; the first event strictly beyond it stays queued and the
// clock is left at the horizon. Draining the queue also leaves the clock at
// the horizon (matching RunUntil); only Stop and the event limit abort the
// run with the clock mid-way.
func (e *Engine) Run(until time.Duration) {
	e.stopped = false
	for !e.stopped {
		if e.limit > 0 && e.executed >= e.limit {
			return
		}
		if len(e.heap) == 0 || e.slots[e.heap[0]].at > until {
			if until > e.now {
				e.now = until
			}
			return
		}
		e.Step()
	}
}

// RunUntil executes events until pred returns true (checked after each
// event), the horizon passes, or the queue drains. It reports whether pred
// held when it returned.
func (e *Engine) RunUntil(pred func() bool, horizon time.Duration) bool {
	if pred() {
		return true
	}
	e.stopped = false
	for !e.stopped {
		if e.limit > 0 && e.executed >= e.limit {
			return pred()
		}
		if len(e.heap) == 0 || e.slots[e.heap[0]].at > horizon {
			if e.now < horizon {
				e.now = horizon
			}
			return pred()
		}
		e.Step()
		if pred() {
			return true
		}
	}
	return pred()
}

// Pending returns the number of queued events, counting each undelivered
// multicast recipient individually — the value is identical to what an
// equivalent unicast schedule would report. Canceled events are removed
// eagerly, so they never count.
func (e *Engine) Pending() int { return len(e.heap) + e.multiExtra }

// --- the event queue ---
//
// A 4-ary min-heap of slot indices ordered by (at, seq). The ordering key
// is total (seq is unique per event), so the pop order — and therefore the
// schedule — is independent of heap arity and internal layout; switching
// from the binary container/heap changed no schedules. 4-ary trades
// slightly more comparisons per sift-down for half the tree depth and
// better cache locality, and the inlined sift loops avoid container/heap's
// interface dispatch and per-push boxing.
//
// Structural invariant: the heap contains exactly the scheduled slots.
// Cancel removes its event eagerly (heapRemove) and Step pops before
// executing, so the head is always live — the defensive canceled-event
// sweep the old queue needed in peek is gone because the state it swept
// can no longer exist.

// before reports whether slot a executes before slot b.
func (e *Engine) before(a, b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends a slot and restores the heap property upward.
//
//repro:hotpath
func (e *Engine) heapPush(si int32) {
	e.heap = append(e.heap, si)
	e.siftUp(int32(len(e.heap) - 1))
}

// popMin removes and returns the earliest slot.
//
//repro:hotpath
func (e *Engine) popMin() int32 {
	h := e.heap
	si := h[0]
	e.slots[si].heapIdx = -1
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		e.slots[h[0]].heapIdx = 0
		e.heap = h[:n]
		e.siftDown(0)
	} else {
		e.heap = h[:0]
	}
	return si
}

// heapRemove removes the slot at heap position i (Cancel's path).
//
//repro:hotpath
func (e *Engine) heapRemove(i int32) {
	h := e.heap
	n := int32(len(h)) - 1
	e.slots[h[i]].heapIdx = -1
	if i == n {
		e.heap = h[:n]
		return
	}
	moved := h[n]
	h[i] = moved
	e.slots[moved].heapIdx = i
	e.heap = h[:n]
	e.siftDown(i)
	// If siftDown left it in place it may still violate the property
	// upward; siftUp is a no-op otherwise.
	e.siftUp(e.slots[moved].heapIdx)
}

// siftUp restores the heap property from position i toward the root.
//
//repro:hotpath
func (e *Engine) siftUp(i int32) {
	h := e.heap
	si := h[i]
	s := &e.slots[si]
	for i > 0 {
		p := (i - 1) / 4
		ps := h[p]
		if e.before(&e.slots[ps], s) {
			break
		}
		h[i] = ps
		e.slots[ps].heapIdx = i
		i = p
	}
	h[i] = si
	s.heapIdx = i
}

// siftDown restores the heap property from position i toward the leaves.
//
//repro:hotpath
func (e *Engine) siftDown(i int32) {
	h := e.heap
	n := int32(len(h))
	si := h[i]
	s := &e.slots[si]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		bs := &e.slots[h[c]]
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			ks := &e.slots[h[k]]
			if e.before(ks, bs) {
				best, bs = k, ks
			}
		}
		if !e.before(bs, s) {
			break
		}
		h[i] = h[best]
		bs.heapIdx = i
		i = best
	}
	h[i] = si
	s.heapIdx = i
}
