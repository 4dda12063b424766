package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestScheduleCancelChurnIsAllocFree pins the zero-alloc invariant of the
// engine's hottest edge: the SetTimer pattern (cancel the previous event,
// schedule a replacement). After warm-up the free list and heap capacity
// absorb all churn, so the steady state must not allocate at all.
func TestScheduleCancelChurnIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	ev := e.After(time.Millisecond, fn) // warm up slot storage and heap capacity
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Cancel()
		ev = e.After(time.Millisecond, fn)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel churn allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestStepIsAllocFree pins the zero-alloc invariant of the execute path: a
// self-rescheduling event (the shape of every protocol timer and heartbeat)
// must drive Step without allocating.
func TestStepIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	var tick func()
	tick = func() { e.After(time.Millisecond, tick) }
	e.After(0, tick)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("queue unexpectedly drained")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleDeliveryIsAllocFree pins the zero-alloc invariant of the
// payload path: scheduling and delivering a message through the sink must
// not allocate once a payload exists (the payload itself is the caller's;
// here it is boxed once outside the loop).
func TestScheduleDeliveryIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	delivered := 0
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) { delivered++ })
	var payload any = struct{ x int }{42} // boxed once, reused
	e.ScheduleDelivery(0, 0, 1, 7, payload)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleDelivery(e.Now(), 0, 1, 7, payload)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("delivery round-trip allocated %.1f allocs/op, want 0", allocs)
	}
	if delivered < 1000 {
		t.Fatalf("sink saw %d deliveries", delivered)
	}
}

// TestDeliverySinkReceivesPayload checks the sink is invoked with exactly
// the scheduled arguments, in schedule order for simultaneous deliveries.
func TestDeliverySinkReceivesPayload(t *testing.T) {
	e := NewEngine(1)
	type rec struct {
		from, to int32
		aux      int64
		payload  any
	}
	var got []rec
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) {
		got = append(got, rec{from, to, aux, payload})
	})
	e.ScheduleDelivery(2*time.Millisecond, 3, 4, 99, "late")
	e.ScheduleDelivery(time.Millisecond, 1, 2, 7, "early")
	e.Run(time.Second)
	want := []rec{{1, 2, 7, "early"}, {3, 4, 99, "late"}}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSecondSinkRegistrationPanics: one sink owner per engine.
func TestSecondSinkRegistrationPanics(t *testing.T) {
	e := NewEngine(1)
	e.SetDeliverySink(func(int32, int32, int64, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second SetDeliverySink should panic")
		}
	}()
	e.SetDeliverySink(func(int32, int32, int64, any) {})
}

// TestHeapStressAgainstReferenceOrder drives the pooled 4-ary heap through
// a large randomized schedule/cancel workload and checks execution matches
// exactly the reference schedule: the uncanceled events in (time, sequence)
// order — the total order the old binary container/heap implemented, which
// the determinism guarantee rests on.
func TestHeapStressAgainstReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := NewEngine(1)
	type key struct {
		at  time.Duration
		seq int
	}
	type scheduled struct {
		ev Event
		k  key
	}
	var got []key
	var live []scheduled
	canceled := make(map[key]bool)
	var all []key
	seq := 0
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			// Cancel a random pending event (exercises heapRemove at
			// arbitrary heap positions).
			j := rng.Intn(len(live))
			s := live[j]
			s.ev.Cancel()
			if s.ev.Pending() {
				t.Fatal("event still pending after Cancel")
			}
			canceled[s.k] = true
			live = append(live[:j], live[j+1:]...)
			continue
		}
		seq++
		k := key{time.Duration(rng.Intn(1000)) * time.Millisecond, seq}
		ev := e.Schedule(k.at, func() { got = append(got, k) })
		live = append(live, scheduled{ev, k})
		all = append(all, k)
	}
	e.Run(time.Hour)
	var want []key
	for _, k := range all {
		if !canceled[k] {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order diverges at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", e.Pending())
	}
}

// TestBatchedBroadcastIsAllocFree pins the zero-alloc invariant of the
// multicast fast path end to end: beginning a fan-out, adding every
// recipient, committing, and stepping all deliveries through the sink must
// not allocate once the slot pool and recipient-vector pool are warm.
func TestBatchedBroadcastIsAllocFree(t *testing.T) {
	const fanout = 64
	e := NewEngine(1)
	delivered := 0
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) { delivered++ })
	var payload any = struct{ x int }{42} // boxed once, reused
	round := func() {
		mc := e.BeginMulticast(0, 7, payload, fanout)
		for i := 0; i < fanout; i++ {
			mc.Add(int32(i), e.Now()+time.Duration(i)*time.Microsecond)
		}
		mc.Commit()
		for e.Step() {
		}
	}
	round() // warm up slot, heap, and vector pools
	allocs := testing.AllocsPerRun(1000, round)
	if allocs != 0 {
		t.Fatalf("batched broadcast round allocated %.1f allocs/op, want 0", allocs)
	}
	if delivered < 1000*fanout {
		t.Fatalf("sink saw %d deliveries", delivered)
	}
}

// TestResetIsAllocFree pins arena reuse of the engine: resetting a warm
// engine reseeds its generator in place and rebuilds the free lists over
// the existing storage, allocating nothing, and the reseeded generator
// yields the same stream as a fresh engine's.
func TestResetIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	e.SetDeliverySink(func(int32, int32, int64, any) {})
	mc := e.BeginMulticast(0, 0, "x", 4)
	mc.Add(1, time.Millisecond)
	mc.Commit()
	e.After(time.Millisecond, func() {})
	e.Run(time.Hour)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		e.Reset(seed)
	})
	if allocs != 0 {
		t.Fatalf("Reset on a warm engine allocated %.1f allocs/op, want 0", allocs)
	}
	fresh := rand.New(rand.NewSource(seed))
	for i := 0; i < 100; i++ {
		if got, want := e.Rand().Int63(), fresh.Int63(); got != want {
			t.Fatalf("draw %d after Reset(%d) = %d, fresh engine draws %d", i, seed, got, want)
		}
	}
}
