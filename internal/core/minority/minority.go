// Package minority implements minority dynamics, the contrarian member of
// the population-dynamics family analyzed in arXiv:2310.13558 ("Minority
// Dynamics and the Power of Synchronicity").
//
// The dynamics are binary: every process repeatedly samples three
// uniformly random processes and adopts the opinion that is in the
// *minority* among the sample — the lone dissenter of a two-versus-one
// split, and, when the sample is unanimous, the opinion *absent* from it
// (each process tracks the complement of its opinion as it observes it).
// That absent-opinion case is what distinguishes minority from a mere
// tiebreak rule: writing a for one opinion's population fraction and
// b = 1−a, a synchronous round maps a to b³+3ab², whose derivative at the
// balanced point a = ½ is −3/2 — balance is an unstable oscillating fixed
// point, so sampling noise is amplified by 3/2 per round until the whole
// population reaches one opinion and then flips it in lockstep every round
// (the paper's almost-consensus: unanimity whose value alternates).
//
// Synchronicity is load-bearing here, exactly as the paper's title says:
// the amplification argument needs the whole population to update
// simultaneously, and asynchronous (jittered) updates erode emerging
// majorities node by node instead. This implementation therefore paces its
// rounds in lockstep — unlike usd and majority it adds no per-arm jitter,
// so with undrifted clocks (ρ=0) every round timer fires at the same
// virtual instant, and because queries sent at a round boundary are
// delivered at strictly later (time, sequence) positions, every process
// steps on the *previous* round's opinions: a genuinely synchronous
// update. Nonzero ρ desynchronizes the rounds and the dynamics may stall
// at a mixed equilibrium; that failure mode is the paper's subject, not a
// bug.
//
// Termination reuses the streak criterion described in package usd. The
// sampling lag makes it sound during the oscillation too: a process always
// samples the generation its own opinion belongs to, so "my opinion equals
// every sample" holds every round once the population is unanimous, even
// as the unanimous value alternates, and the lockstep rounds mean
// same-round deciders share one current value while stragglers are caught
// by the Decided broadcast well before their next boundary. The dynamics
// remain the family's contrast case — binary opinion spaces only, no
// O(log n) guarantee in the paper's asynchronous settings — so the scaling
// assertions cover usd and 3majority while minority is exercised at small
// n, and the descriptor is Hidden like the rest of the dynamics family.
package minority

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
const stateKey = storage.KeyMinorityState

// samples is the per-round sample size the rule is defined over.
const samples = 3

// Config holds the dynamics parameters.
type Config struct {
	// Delta is δ.
	Delta time.Duration
	// RoundInterval is the local-clock gap between sampling rounds; it must
	// cover a query/reply round trip (> 2δ). Zero selects 3δ. Unlike the
	// other dynamics there is no per-arm jitter: the rule only converges
	// when the whole population updates in lockstep (see the package
	// comment).
	RoundInterval time.Duration
	// StreakLen is the number of consecutive unanimous rounds required to
	// decide. Zero selects log₂(n)+4 at construction time.
	StreakLen int
	// Rho is the clock-rate error bound. Accepted for interface symmetry,
	// but any nonzero value desynchronizes the rounds the rule depends on.
	Rho float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta <= 0 {
		return c, fmt.Errorf("minority: Delta must be positive, got %v", c.Delta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("minority: Rho must be in [0,1), got %v", c.Rho)
	}
	if c.RoundInterval == 0 {
		c.RoundInterval = 3 * c.Delta
	}
	if c.RoundInterval <= 2*c.Delta {
		return c, fmt.Errorf("minority: RoundInterval %v must exceed a 2δ round trip (δ=%v)", c.RoundInterval, c.Delta)
	}
	if c.StreakLen < 0 {
		return c, fmt.Errorf("minority: StreakLen must be ≥ 0, got %d", c.StreakLen)
	}
	return c, nil
}

// defaultStreak matches package majority's three-sample analysis.
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

// Process is one minority-dynamics participant.
type Process struct {
	id  consensus.ProcessID
	n   int
	cfg Config
	env consensus.Environment

	// st is the durable image, persisted through a pointer on every
	// change.
	st durable
	// other is the complement opinion as last observed — the value the
	// binary rule adopts when a unanimous sample leaves the minority
	// opinion absent. Volatile: a restarted process re-learns it from its
	// first mixed sample.
	other  consensus.Value
	round  int64
	sample [samples]consensus.Value
	got    int
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
		if p.st.Decided || m.Round != p.round || p.got >= samples {
			return
		}
		if m.Opinion != p.st.Opinion {
			p.other = m.Opinion
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
	if p.got == samples {
		p.step()
		if p.st.Decided {
			return
		}
	}
	p.beginRound()
	p.armRound()
}

// beginRound starts the next sampling round: query three uniformly random
// processes (with replacement, self included).
func (p *Process) beginRound() {
	p.round++
	p.got = 0
	for i := 0; i < samples; i++ {
		peer := consensus.ProcessID(p.env.Rand().Intn(p.n))
		p.env.Send(peer, Query{Round: p.round})
	}
}

// armRound schedules the next round tick. Deliberately jitter-free: the
// population must update in lockstep for the contrarian rule to amplify
// bias instead of eroding it.
func (p *Process) armRound() {
	p.env.SetTimer(roundTimer, p.cfg.RoundInterval)
}

// step applies the minority rule to the completed round's samples and
// advances the decision streak (judged on the pre-update state; the
// sampling lag keeps it sound through the lockstep oscillation, see the
// package comment).
func (p *Process) step() {
	unanimous := p.sample[0] == p.st.Opinion && p.sample[1] == p.st.Opinion && p.sample[2] == p.st.Opinion
	s0, s1, s2 := p.sample[0], p.sample[1], p.sample[2]
	switch {
	case s0 == s1 && s1 == s2:
		// Unanimous sample: the minority opinion is the one absent from
		// it. Adopt the complement when one is known — the binary
		// oscillation — and the sample itself when none is (a one-opinion
		// population, already a fixed point).
		if p.other != "" && p.other != s0 {
			p.setOpinion(p.other)
		} else {
			p.setOpinion(s0)
		}
	case s0 == s1:
		p.setOpinion(s2)
	case s0 == s2:
		p.setOpinion(s1)
	case s1 == s2:
		p.setOpinion(s0)
	default:
		// Three or more opinions leave no unique minority; the analyzed
		// dynamics are binary. Take the first sample as a tiebreak.
		p.setOpinion(s0)
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

// setOpinion installs a possibly new opinion, persisting only on change
// and remembering the displaced opinion as the complement.
func (p *Process) setOpinion(v consensus.Value) {
	if v == p.st.Opinion {
		return
	}
	p.other = p.st.Opinion
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
		p.env.Logf("minority: persist: %v", err)
	}
}
