// Package majority implements the 3-majority and 2-choices population
// dynamics, the sampling-based opinion protocols surveyed by Becchetti,
// Clementi and Natale and analyzed through smoothed population models in
// arXiv:2503.02426.
//
// Every process holds an opinion (initially its proposal) and repeatedly
// samples uniformly random processes:
//
//   - 3-majority samples three; if at least two agree it adopts their
//     opinion, otherwise it adopts the first sample;
//   - 2-choices samples two; if both agree it adopts their opinion,
//     otherwise it keeps its own.
//
// Both drive a bounded opinion space to plurality consensus within
// O(log n) rounds w.h.p. (for 2-choices, given a sufficient initial bias),
// without USD's third state: the sample-size-of-three (or tie-keep)
// tiebreak plays the role the undecided state plays there. The
// population-dynamics sweep checks the logarithmic growth at n=100, 1000,
// 5000.
//
// Termination reuses the streak criterion described in package usd: a
// process whose own opinion matched every sample for StreakLen consecutive
// rounds decides and broadcasts Decided; receivers adopt silently. With
// k ≥ 2 samples a lucky streak is k-times less likely per round, so
// StreakLen defaults to log₂(n)+4.
//
// Like usd, the descriptors are Hidden: the guarantees are probabilistic
// and about N → ∞, so the protocols resolve by name in the
// population-dynamics scenarios but stay out of default paper comparisons.
package majority

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// roundTimer drives the sampling rounds.
const roundTimer consensus.TimerID = 1

// stateKey is the stable-storage key holding durable state.
const stateKey = storage.KeyMajorityState

// maxSamples bounds the per-round sample vector (3-majority's three).
const maxSamples = 3

// Config holds the dynamics parameters.
type Config struct {
	// Delta is δ.
	Delta time.Duration
	// Samples is the per-round sample size: 3 selects the 3-majority rule,
	// 2 the 2-choices rule. Zero selects 3.
	Samples int
	// RoundInterval is the local-clock gap between sampling rounds; it must
	// cover a query/reply round trip (> 2δ). Zero selects 3δ. Each arm adds
	// a uniform jitter from [0, δ); see package usd for why.
	RoundInterval time.Duration
	// StreakLen is the number of consecutive unanimous rounds required to
	// decide. Zero selects log₂(n)+4 at construction time.
	StreakLen int
	// Rho is the clock-rate error bound (interface symmetry only).
	Rho float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta <= 0 {
		return c, fmt.Errorf("majority: Delta must be positive, got %v", c.Delta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("majority: Rho must be in [0,1), got %v", c.Rho)
	}
	if c.Samples == 0 {
		c.Samples = 3
	}
	if c.Samples != 2 && c.Samples != 3 {
		return c, fmt.Errorf("majority: Samples must be 2 (2-choices) or 3 (3-majority), got %d", c.Samples)
	}
	if c.RoundInterval == 0 {
		c.RoundInterval = 3 * c.Delta
	}
	if c.RoundInterval <= 2*c.Delta {
		return c, fmt.Errorf("majority: RoundInterval %v must exceed a 2δ round trip (δ=%v)", c.RoundInterval, c.Delta)
	}
	if c.StreakLen < 0 {
		return c, fmt.Errorf("majority: StreakLen must be ≥ 0, got %d", c.StreakLen)
	}
	return c, nil
}

// defaultStreak is the decision streak for a cluster of n with k ≥ 2
// samples per round: log₂(n) plus slack keeps a lucky pre-convergence
// streak a ≤ 1/n²-per-window event (each unanimous round already needs k
// independent agreeing samples).
func defaultStreak(n int) int {
	return bits.Len(uint(n)) + 4
}

// New validates the configuration and returns a process factory.
func New(cfg Config) (consensus.Factory, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		c := cfg
		if c.StreakLen == 0 {
			c.StreakLen = defaultStreak(n)
		}
		return &Process{id: id, n: n, cfg: c, st: durable{Opinion: proposal}}
	}, nil
}

// durable is the stable-storage image.
type durable struct {
	Opinion consensus.Value
	Decided bool
}

// Process is one participant of the 3-majority or 2-choices dynamics.
type Process struct {
	id  consensus.ProcessID
	n   int
	cfg Config
	env consensus.Environment

	// st is the durable image, persisted through a pointer on every
	// change.
	st    durable
	round int64
	// sample collects the current round's replies in arrival order; got
	// counts how many arrived. A fixed array keeps the hot path map-free
	// and allocation-free.
	sample [maxSamples]consensus.Value
	got    int
	// streak counts consecutive unanimous rounds; StreakLen of them decide.
	streak int
}

// Init implements consensus.Process.
func (p *Process) Init(env consensus.Environment) {
	p.env = env
	var st durable
	if ok, err := env.Store().Get(stateKey, &st); err == nil && ok {
		p.st = st
	}
	if p.st.Decided {
		p.env.Decide(p.st.Opinion)
		return
	}
	p.beginRound()
	p.armRound()
}

// HandleMessage implements consensus.Process.
func (p *Process) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	switch m := m.(type) {
	case Query:
		p.env.Send(from, Reply{Round: m.Round, Opinion: p.st.Opinion})
	case Reply:
		if p.st.Decided || m.Round != p.round || p.got >= p.cfg.Samples {
			return
		}
		p.sample[p.got] = m.Opinion
		p.got++
	case Decided:
		p.adopt(m.Val)
	}
}

// HandleTimer implements consensus.Process.
func (p *Process) HandleTimer(id consensus.TimerID) {
	if id != roundTimer || p.st.Decided {
		return
	}
	if p.got == p.cfg.Samples {
		p.step()
		if p.st.Decided {
			return
		}
	}
	p.beginRound()
	p.armRound()
}

// beginRound starts the next sampling round: query Samples uniformly random
// processes (with replacement, self included, as the dynamics prescribe).
func (p *Process) beginRound() {
	p.round++
	p.got = 0
	for i := 0; i < p.cfg.Samples; i++ {
		peer := consensus.ProcessID(p.env.Rand().Intn(p.n))
		p.env.Send(peer, Query{Round: p.round})
	}
}

// armRound schedules the next round tick with fresh jitter.
func (p *Process) armRound() {
	jitter := time.Duration(p.env.Rand().Int63n(int64(p.cfg.Delta)))
	p.env.SetTimer(roundTimer, p.cfg.RoundInterval+jitter)
}

// step applies the update rule to the completed round's samples and
// advances the decision streak.
func (p *Process) step() {
	unanimous := true
	for i := 0; i < p.cfg.Samples; i++ {
		if p.sample[i] != p.st.Opinion {
			unanimous = false
			break
		}
	}
	if p.cfg.Samples == 3 {
		// 3-majority: adopt any pairwise agreement, else the first sample.
		switch {
		case p.sample[0] == p.sample[1] || p.sample[0] == p.sample[2]:
			p.setOpinion(p.sample[0])
		case p.sample[1] == p.sample[2]:
			p.setOpinion(p.sample[1])
		default:
			p.setOpinion(p.sample[0])
		}
	} else {
		// 2-choices: adopt only on agreement, else keep.
		if p.sample[0] == p.sample[1] {
			p.setOpinion(p.sample[0])
		}
	}
	if unanimous {
		p.streak++
	} else {
		p.streak = 0
	}
	if p.streak >= p.cfg.StreakLen {
		p.st.Decided = true
		p.persist()
		p.env.CancelTimer(roundTimer)
		p.env.Decide(p.st.Opinion)
		p.env.Broadcast(Decided{Val: p.st.Opinion})
	}
}

// setOpinion installs a possibly new opinion, persisting only on change.
func (p *Process) setOpinion(v consensus.Value) {
	if v == p.st.Opinion {
		return
	}
	p.st.Opinion = v
	p.persist()
}

// adopt takes a decision learned from a Decided broadcast; see usd.adopt.
func (p *Process) adopt(v consensus.Value) {
	if p.st.Decided {
		return
	}
	p.st.Decided = true
	p.st.Opinion = v
	p.streak = 0
	p.persist()
	p.env.CancelTimer(roundTimer)
	p.env.Decide(v)
}

// persist writes the durable image; failures are logged, not fatal.
//
//repro:hotpath
func (p *Process) persist() {
	if err := p.env.Store().Put(stateKey, &p.st); err != nil {
		p.env.Logf("majority: persist: %v", err)
	}
}
