package rsm

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// slotEnv is the slot-scoped view of the replica's environment handed to
// each inner modpaxos instance: messages are wrapped in SlotMsg, timers are
// remapped into the slot's ID block, storage keys are prefixed, and Decide
// feeds the replica's log instead of the outer consensus checker (an RSM
// decides many values, one per slot). It lives inside its slotState, store
// included, so an instance costs one allocation besides the protocol's own.
type slotEnv struct {
	replica *Replica
	slot    int64
	store   prefixStore
}

var _ consensus.Environment = (*slotEnv)(nil)

// ID implements consensus.Environment.
func (e *slotEnv) ID() consensus.ProcessID { return e.replica.id }

// N implements consensus.Environment.
func (e *slotEnv) N() int { return e.replica.n }

// Now implements consensus.Environment.
func (e *slotEnv) Now() time.Duration { return e.replica.env.Now() }

// Send implements consensus.Environment.
//
//repro:hotpath
func (e *slotEnv) Send(to consensus.ProcessID, m consensus.Message) {
	//repro:allow hotlint one SlotMsg box per protocol message until modpaxos messages carry their slot
	e.replica.env.Send(to, SlotMsg{Slot: e.slot, Inner: m})
}

// Broadcast implements consensus.Environment.
//
//repro:hotpath
func (e *slotEnv) Broadcast(m consensus.Message) {
	//repro:allow hotlint one SlotMsg box per protocol message until modpaxos messages carry their slot
	e.replica.env.Broadcast(SlotMsg{Slot: e.slot, Inner: m})
}

// SetTimer implements consensus.Environment. Inner timer IDs must fit the
// slot's block, which starts one block up: block 0 belongs to the replica's
// own serving-path timers (linger, catch-up).
//
//repro:hotpath
func (e *slotEnv) SetTimer(id consensus.TimerID, d time.Duration) {
	if int64(id) >= timersPerSlot {
		panic(fmt.Sprintf("rsm: inner timer id %d exceeds block size %d", id, timersPerSlot))
	}
	e.replica.env.SetTimer(consensus.TimerID((e.slot+1)*timersPerSlot+int64(id)), d)
}

// CancelTimer implements consensus.Environment.
//
//repro:hotpath
func (e *slotEnv) CancelTimer(id consensus.TimerID) {
	e.replica.env.CancelTimer(consensus.TimerID((e.slot+1)*timersPerSlot + int64(id)))
}

// Store implements consensus.Environment: the slot's own namespace of the
// replica's store, built once with the instance.
//
//repro:hotpath
func (e *slotEnv) Store() storage.Store { return &e.store }

// Rand implements consensus.Environment.
func (e *slotEnv) Rand() *rand.Rand { return e.replica.env.Rand() }

// Decide implements consensus.Environment: a slot decision goes to the
// replica's log.
func (e *slotEnv) Decide(v consensus.Value) { e.replica.onSlotDecided(e.slot, v) }

// Emit implements consensus.Environment.
func (e *slotEnv) Emit(kind string, value int64) {
	e.replica.env.Emit(slotLabel(e.slot, kind), value)
}

// spanEnabler lets the slot env skip the kind-prefix allocation when spans
// are off (both runtime Nodes implement it).
type spanEnabler interface{ SpansEnabled() bool }

// Span implements consensus.SpanSink when the outer environment does,
// namespacing the kind like Emit so concurrent slots get distinct lanes.
func (e *slotEnv) Span(kind string, begin bool, value int64) {
	sink, ok := e.replica.env.(consensus.SpanSink)
	if !ok {
		return
	}
	if en, ok := e.replica.env.(spanEnabler); ok && !en.SpansEnabled() {
		return
	}
	sink.Span(slotLabel(e.slot, kind), begin, value)
}

// ObserveDuration implements consensus.DurationObserver when the outer
// environment does. Histogram names are not slot-prefixed: slot latencies
// aggregate into one distribution.
func (e *slotEnv) ObserveDuration(name string, d time.Duration) {
	if obs, ok := e.replica.env.(consensus.DurationObserver); ok {
		obs.ObserveDuration(name, d)
	}
}

// Logf implements consensus.Environment.
func (e *slotEnv) Logf(format string, args ...any) {
	e.replica.env.Logf("slot %d: "+format, append([]any{e.slot}, args...)...)
}

// slotLabel names a slot's series or span ("slot<N>-<kind>"; fault
// schedules such as AssassinateOnSeries match these bytes) with one
// allocation.
func slotLabel(slot int64, kind string) string {
	var buf [64]byte
	b := append(buf[:0], "slot"...)
	b = strconv.AppendInt(b, slot, 10)
	b = append(b, '-')
	b = append(b, kind...)
	return string(b)
}

// slotPrefix is the store namespace of one slot instance ("slot<N>/").
func slotPrefix(slot int64) string {
	var buf [32]byte
	b := append(buf[:0], slotNamespace...)
	b = strconv.AppendInt(b, slot, 10)
	b = append(b, '/')
	return string(b)
}

// prefixStore namespaces a storage.Store by key prefix so slot instances
// cannot collide. It remembers the last key it prefixed: an instance
// persists its state under one key, so steady-state Puts and Gets build
// no strings.
type prefixStore struct {
	inner    storage.Store
	prefix   string
	lastKey  string
	lastFull string
}

var _ storage.Store = (*prefixStore)(nil)

// full returns the prefixed form of key.
func (s *prefixStore) full(key string) string {
	if s.lastFull == "" || key != s.lastKey {
		s.lastKey, s.lastFull = key, s.prefix+key
	}
	return s.lastFull
}

// Put implements storage.Store. The dynamic prefix is opaque to keylint;
// it is always the registered slot namespace (see slotPrefix above).
//
//repro:allow keylint prefix is the registered slot<N>/ namespace, built in slotPrefix
func (s *prefixStore) Put(key string, value any) error { return s.inner.Put(s.full(key), value) }

// Get implements storage.Store.
func (s *prefixStore) Get(key string, out any) (bool, error) {
	return s.inner.Get(s.full(key), out)
}

// Delete implements storage.Store.
func (s *prefixStore) Delete(key string) error { return s.inner.Delete(s.full(key)) }

// Keys implements storage.Store: only keys in this slot's namespace, with
// the prefix stripped.
func (s *prefixStore) Keys() ([]string, error) {
	all, err := s.inner.Keys()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range all {
		if len(k) >= len(s.prefix) && k[:len(s.prefix)] == s.prefix {
			out = append(out, k[len(s.prefix):])
		}
	}
	return out, nil
}
