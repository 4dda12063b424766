package main

import (
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/storage"
)

// Boundary tracing measures the layers below the protocol cores from the
// outside: a hidden "traced-<name>" descriptor wraps a visible protocol's
// factory so that every call from the simulator into the core (Init,
// HandleMessage, HandleTimer) and every call from the core back into its
// environment (Send/Broadcast into simnet, timers, the stable store,
// Decide into the safety checker) is counted and timed. Nothing in the
// program changes; the wrapped protocol sees the same environment, so the
// simulated schedule is identical to an untraced run.

// boundaryStats accumulates one traced pass. The scenario runner uses a
// single worker, so plain fields suffice.
type boundaryStats struct {
	handlerCalls int64
	handlerNs    int64 // inclusive time inside the core's handlers
	childNs      int64 // time inside environment calls made by handlers

	sends, sendNs   int64
	timers, timerNs int64
	stores, storeNs int64
	decides, decNs  int64
}

func (s *boundaryStats) reset() { *s = boundaryStats{} }

// tracedName is the registry name of the traced variant of p.
func tracedName(p harness.Protocol) harness.Protocol { return "traced-" + p }

// untracedName strips the traced- prefix.
func untracedName(p harness.Protocol) harness.Protocol {
	const prefix = "traced-"
	if len(p) > len(prefix) && p[:len(prefix)] == prefix {
		return p[len(prefix):]
	}
	return p
}

// registerTraced registers a hidden traced variant of every named protocol,
// all feeding st. It keeps every hook and capability of the original
// descriptor, so checks keyed on the registry (decision bounds, the leader
// oracle, message interning) treat the variant exactly like the original.
func registerTraced(st *boundaryStats, names []harness.Protocol) error {
	for _, name := range names {
		d, err := protocol.Get(string(name))
		if err != nil {
			return err
		}
		if _, err := protocol.Get(string(tracedName(name))); err == nil {
			continue
		}
		inner := d.New
		d.Name = string(tracedName(name))
		d.Hidden = true
		d.New = func(p protocol.Params) (consensus.Factory, error) {
			f, err := inner(p)
			if err != nil {
				return nil, err
			}
			return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
				return &tracedProc{inner: f(id, n, proposal), st: st}
			}, nil
		}
		if err := protocol.Register(d); err != nil {
			return err
		}
	}
	return nil
}

// tracedProc times the simulator's calls into a protocol core.
type tracedProc struct {
	inner consensus.Process
	st    *boundaryStats
}

func (p *tracedProc) Init(env consensus.Environment) {
	t0 := time.Now()
	p.inner.Init(&tracedEnv{Environment: env, st: p.st})
	p.done(t0)
}

func (p *tracedProc) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	t0 := time.Now()
	p.inner.HandleMessage(from, m)
	p.done(t0)
}

func (p *tracedProc) HandleTimer(id consensus.TimerID) {
	t0 := time.Now()
	p.inner.HandleTimer(id)
	p.done(t0)
}

func (p *tracedProc) done(t0 time.Time) {
	p.st.handlerCalls++
	p.st.handlerNs += int64(time.Since(t0))
}

// tracedEnv times the core's calls into its environment. It forwards the
// optional observability interfaces the embedded interface would hide.
type tracedEnv struct {
	consensus.Environment
	st    *boundaryStats
	store *tracedStore
}

func (e *tracedEnv) child(t0 time.Time, calls, ns *int64) {
	d := int64(time.Since(t0))
	*calls++
	*ns += d
	e.st.childNs += d
}

func (e *tracedEnv) Send(to consensus.ProcessID, m consensus.Message) {
	t0 := time.Now()
	e.Environment.Send(to, m)
	e.child(t0, &e.st.sends, &e.st.sendNs)
}

func (e *tracedEnv) Broadcast(m consensus.Message) {
	t0 := time.Now()
	e.Environment.Broadcast(m)
	e.child(t0, &e.st.sends, &e.st.sendNs)
}

func (e *tracedEnv) SetTimer(id consensus.TimerID, d time.Duration) {
	t0 := time.Now()
	e.Environment.SetTimer(id, d)
	e.child(t0, &e.st.timers, &e.st.timerNs)
}

func (e *tracedEnv) CancelTimer(id consensus.TimerID) {
	t0 := time.Now()
	e.Environment.CancelTimer(id)
	e.child(t0, &e.st.timers, &e.st.timerNs)
}

func (e *tracedEnv) Decide(v consensus.Value) {
	t0 := time.Now()
	e.Environment.Decide(v)
	e.child(t0, &e.st.decides, &e.st.decNs)
}

func (e *tracedEnv) Store() storage.Store {
	inner := e.Environment.Store()
	if e.store == nil || e.store.inner != inner {
		e.store = &tracedStore{inner: inner, env: e}
	}
	return e.store
}

func (e *tracedEnv) Span(kind string, begin bool, value int64) {
	if s, ok := e.Environment.(consensus.SpanSink); ok {
		s.Span(kind, begin, value)
	}
}

func (e *tracedEnv) SpansEnabled() bool {
	if s, ok := e.Environment.(interface{ SpansEnabled() bool }); ok {
		return s.SpansEnabled()
	}
	return false
}

func (e *tracedEnv) ObserveDuration(name string, d time.Duration) {
	consensus.ObserveDuration(e.Environment, name, d)
}

func (e *tracedEnv) ObserveValue(name string, v int64) {
	consensus.ObserveValue(e.Environment, name, v)
}

// tracedStore times the core's stable-storage calls.
type tracedStore struct {
	inner storage.Store
	env   *tracedEnv
}

func (s *tracedStore) Put(key string, value any) error {
	t0 := time.Now()
	//repro:allow keylint forwards the wrapped core's own key unchanged
	err := s.inner.Put(key, value)
	s.env.child(t0, &s.env.st.stores, &s.env.st.storeNs)
	return err
}

func (s *tracedStore) Get(key string, out any) (bool, error) {
	t0 := time.Now()
	ok, err := s.inner.Get(key, out)
	s.env.child(t0, &s.env.st.stores, &s.env.st.storeNs)
	return ok, err
}

func (s *tracedStore) Delete(key string) error {
	t0 := time.Now()
	err := s.inner.Delete(key)
	s.env.child(t0, &s.env.st.stores, &s.env.st.storeNs)
	return err
}

func (s *tracedStore) Keys() ([]string, error) {
	t0 := time.Now()
	keys, err := s.inner.Keys()
	s.env.child(t0, &s.env.st.stores, &s.env.st.storeNs)
	return keys, err
}
