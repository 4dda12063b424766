package sim

import (
	"fmt"
	"time"
)

// Batched multicast: one heap slot fanning a shared payload out to many
// recipients.
//
// The unicast delivery path costs one alloc-free but heap-resident event per
// link, so an all-to-all broadcast round at population scale (N in the
// thousands) pushes N² events through the priority queue and the queue
// dominates everything. A multicast keeps the per-link semantics — each
// recipient has its own delivery time, drawn by the caller with the same
// randomness a unicast loop would use — but stores them as one slot plus a
// compact (at, seq, to) vector sorted at commit time. The heap orders the
// slot by its earliest undelivered entry; each Step delivers exactly one
// entry and re-keys the slot in place (a single sift-down instead of a
// pop+push). Executed-event counts, clock advancement, and RunUntil
// predicate granularity are identical to the unicast schedule, and because
// every Add consumes the engine sequence number the equivalent
// ScheduleDelivery would have, the expanded delivery order is byte-identical
// too.

// multiEntry is one recipient of a multicast: its delivery time, the engine
// sequence number the delivery consumed at schedule time, and the recipient
// address.
type multiEntry struct {
	at  time.Duration
	seq uint64
	to  int32
}

// Multicast accumulates the recipients of one batched fan-out. Obtain with
// BeginMulticast, Add each surviving recipient in the caller's deterministic
// recipient order, then Commit exactly once. The zero value is not usable.
type Multicast struct {
	e  *Engine
	si int32
	mi int32
}

// BeginMulticast starts a batched payload fan-out from one sender: a single
// queue entry that will invoke the delivery sink once per added recipient,
// in (time, sequence) order interleaved correctly with every other event.
// sizeHint presizes the recipient vector (pass the cluster size; cold
// vectors take one allocation, warm ones none). Requires SetDeliverySink,
// like ScheduleDelivery.
//
//repro:hotpath
func (e *Engine) BeginMulticast(from int32, aux int64, payload any, sizeHint int) Multicast {
	if e.sink == nil {
		panic("sim: BeginMulticast requires a delivery sink (call SetDeliverySink)")
	}
	si := e.alloc()
	s := &e.slots[si]
	s.sink = true
	s.from = from
	s.aux = aux
	s.payload = payload
	mi := e.allocVec(sizeHint)
	s.multi = mi
	s.mpos = 0
	return Multicast{e: e, si: si, mi: mi}
}

// Add appends a recipient with its delivery time, consuming the next engine
// sequence number — exactly the one an equivalent unicast ScheduleDelivery
// would have taken, which is what keeps batched and unicast schedules
// identical. Dropped recipients are simply not added; a drop consumes no
// sequence number on the unicast path either. Delivery in the past panics,
// matching schedule.
//
//repro:hotpath
func (mc Multicast) Add(to int32, at time.Duration) {
	e := mc.e
	if at < e.now {
		panic(fmt.Sprintf("sim: multicast delivery at %v before now %v", at, e.now))
	}
	e.seq++
	e.multiExtra++
	e.mvecs[mc.mi] = append(e.mvecs[mc.mi], multiEntry{at: at, seq: e.seq, to: to})
}

// Commit sorts the recipient vector by (at, seq) and schedules the multicast
// as a single heap entry keyed by its earliest recipient. A multicast every
// link dropped schedules nothing and returns its storage immediately. The
// builder must not be used after Commit.
//
//repro:hotpath
func (mc Multicast) Commit() {
	e := mc.e
	vec := e.mvecs[mc.mi]
	s := &e.slots[mc.si]
	if len(vec) == 0 {
		s.multi = -1
		e.releaseVec(mc.mi)
		e.release(mc.si)
		return
	}
	sortEntries(vec)
	s.at = vec[0].at
	s.seq = vec[0].seq
	s.mpos = 0
	// The heap entry itself now stands for one recipient; Add counted all
	// of them in multiExtra.
	e.multiExtra--
	e.heapPush(mc.si)
}

// stepMulticast expands the next recipient of the multicast at the heap
// head. It delivers exactly one entry per call — executed counts, clock
// steps, and RunUntil predicate checks match the unicast schedule event for
// event — then re-keys the slot to its next entry in place, a single
// sift-down instead of a pop+push. The last entry pops the slot and returns
// its storage.
//
//repro:hotpath
func (e *Engine) stepMulticast(si int32) bool {
	s := &e.slots[si]
	if s.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", s.at, e.now))
	}
	e.now = s.at
	e.executed++
	vec := e.mvecs[s.multi]
	ent := vec[s.mpos]
	// Copy the shared fields out before any slot bookkeeping: the sink may
	// schedule, and growth of e.slots would invalidate s.
	from, aux, payload := s.from, s.aux, s.payload
	s.mpos++
	if int(s.mpos) < len(vec) {
		// Advancing to a later entry only grows the key, so a downward
		// sift restores the heap property. The heap entry now stands for
		// the next recipient instead of the delivered one.
		s.at = vec[s.mpos].at
		s.seq = vec[s.mpos].seq
		e.multiExtra--
		e.siftDown(0)
	} else {
		e.popMin()
		mi := s.multi
		s.multi = -1
		e.releaseVec(mi)
		e.release(si)
	}
	e.sink(from, ent.to, aux, payload)
	return true
}

// Recipient-vector pool sizing. A cluster keeps a few dozen multicasts in
// flight, so a fresh engine carves its vectors from a shared slab holding
// vecSlabVectors vectors of the requested size (capped at vecSlabEntries
// entries, so population runs do not reserve megabytes) instead of making
// each one, and the pool slices start at vecPoolInitCap.
const (
	vecSlabVectors = 32
	vecSlabEntries = 4096
	vecPoolInitCap = 32
)

// allocVec takes a recipient vector from the pool (length zero, capacity
// whatever its last use grew it to), growing the pool only when every
// vector is attached to a scheduled multicast.
//
//repro:hotpath
func (e *Engine) allocVec(sizeHint int) int32 {
	var mi int32
	if n := len(e.mfree); n > 0 {
		mi = e.mfree[n-1]
		e.mfree = e.mfree[:n-1]
	} else {
		if e.mvecs == nil {
			e.mvecs = make([][]multiEntry, 0, vecPoolInitCap)
			e.mfree = make([]int32, 0, vecPoolInitCap)
		}
		e.mvecs = append(e.mvecs, nil)
		mi = int32(len(e.mvecs) - 1)
	}
	if cap(e.mvecs[mi]) < sizeHint {
		e.mvecs[mi] = e.carveVec(sizeHint)
	}
	return mi
}

// carveVec returns an empty vector of capacity n cut from the engine's
// slab, starting a new slab when the current one cannot hold it. The
// three-index slice caps each vector at n, so an append past it reallocates
// that vector alone instead of overwriting its neighbour.
//
//repro:hotpath
func (e *Engine) carveVec(n int) []multiEntry {
	if cap(e.vslab)-len(e.vslab) < n {
		size := n * vecSlabVectors
		if size > vecSlabEntries {
			size = max(vecSlabEntries, n)
		}
		e.vslab = make([]multiEntry, 0, size)
	}
	start := len(e.vslab)
	e.vslab = e.vslab[:start+n]
	return e.vslab[start : start : start+n]
}

// releaseVec returns a vector to the pool, keeping its capacity.
//
//repro:hotpath
func (e *Engine) releaseVec(mi int32) {
	e.mvecs[mi] = e.mvecs[mi][:0]
	e.mfree = append(e.mfree, mi)
}

// sortEntries orders a recipient vector ascending by (at, seq): an in-place
// heapsort rather than sort.Slice, whose closure would allocate on every
// broadcast. seq is unique per entry, so the order is total and needs no
// stability.
//
//repro:hotpath
func sortEntries(v []multiEntry) {
	n := len(v)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownEntry(v, i, n)
	}
	for i := n - 1; i > 0; i-- {
		v[0], v[i] = v[i], v[0]
		siftDownEntry(v, 0, i)
	}
}

// siftDownEntry restores the max-heap property over v[:n] from position i.
//
//repro:hotpath
func siftDownEntry(v []multiEntry, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && entryBefore(v[c], v[c+1]) {
			c++
		}
		if !entryBefore(v[i], v[c]) {
			return
		}
		v[i], v[c] = v[c], v[i]
		i = c
	}
}

func entryBefore(a, b multiEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Reset returns the engine to its initial state under a fresh seed while
// keeping every piece of allocated storage — slot pool, heap backing array,
// multicast vectors — warm for reuse. Arena-style callers (scenario grid
// workers running thousands of cells) reset one engine per cell instead of
// constructing a new one; a reset engine produces schedules byte-identical
// to a freshly constructed engine's. The delivery sink is cleared so the
// next run's network can register its own, and all outstanding Event
// handles are invalidated.
func (e *Engine) Reset(seed int64) {
	e.now = 0
	e.seq = 0
	e.rng.Seed(seed) // same stream as rand.New(rand.NewSource(seed)), no new 4.9 kB source
	e.stopped = false
	e.heap = e.heap[:0]
	e.sink = nil
	e.executed = 0
	e.limit = 0
	// Rebuild the free list in index order — alloc then hands out slots
	// 0, 1, 2, … exactly as a fresh engine would — bumping generations so
	// stale handles stay inert and dropping references so the pool does
	// not pin the previous run's callbacks or messages.
	e.free = -1
	for i := len(e.slots) - 1; i >= 0; i-- {
		s := &e.slots[i]
		s.gen++
		s.fn = nil
		s.payload = nil
		s.heapIdx = -1
		s.multi = -1
		s.next = e.free
		e.free = int32(i)
	}
	// Same for the vector pool: mfree ends [len-1 … 1 0], so allocVec
	// (which pops from the end) hands out vector 0 first, like a fresh
	// engine.
	e.mfree = e.mfree[:0]
	for i := len(e.mvecs) - 1; i >= 0; i-- {
		e.mvecs[i] = e.mvecs[i][:0]
		e.mfree = append(e.mfree, int32(i))
	}
	e.multiExtra = 0
}
