// Package usd implements synchronous undecided-state dynamics (USD), the
// population-scale opinion protocol analyzed by Bankhamer, Berenbrink,
// Biermeier, Elsässer, Hosseinpour, Kaaser and Kling (arXiv:2103.10366).
//
// Every process holds an opinion (initially its proposal) and repeatedly
// samples one uniformly random process:
//
//   - a process with an opinion that samples a different opinion becomes
//     undecided (it drops its opinion);
//   - an undecided process adopts whatever opinion it samples (staying
//     undecided when it samples another undecided process);
//   - otherwise nothing changes.
//
// The undecided state is the mechanism that makes the dynamics fast: ties
// between opinions are broken through the undecided population rather than
// by direct opinion switches, and with a bounded opinion space the whole
// population reaches a single opinion within O(log n) rounds w.h.p. —
// consensus time grows with the logarithm of the cluster size, which the
// population-dynamics sweep checks at n=100, 1000, 5000.
//
// Termination on top of the dynamics is the standard local criterion: a
// process that has held the same opinion through StreakLen consecutive
// unanimous rounds (its own opinion equal to every sample) decides it and
// broadcasts a Decided message; everyone else adopts that decision on
// receipt, without re-broadcasting. StreakLen defaults to 2·log₂(n)+4
// rounds, making a premature decision (a lucky streak before global
// convergence) a ≤ 1/n²-per-window event while adding only O(log n) rounds
// to the consensus time. Decisions remain guarded by the run's safety
// checker like every other protocol's.
//
// This is a gossip protocol, not an agreement protocol in the paper's
// model: its guarantees are probabilistic and its theory is about N → ∞.
// Its descriptor is therefore Hidden — it runs when named (the
// population-dynamics scenarios) but does not join default paper
// comparisons at N=5.
package usd

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
const stateKey = storage.KeyUSDState

// Config holds the dynamics parameters.
type Config struct {
	// Delta is δ.
	Delta time.Duration
	// RoundInterval is the local-clock gap between sampling rounds; it must
	// cover a query/reply round trip (> 2δ). Zero selects 3δ. Each arm adds
	// a uniform jitter from [0, δ) so the population's rounds interleave —
	// desynchronized decisions let the first Decided broadcast suppress
	// most of the others.
	RoundInterval time.Duration
	// StreakLen is the number of consecutive unanimous rounds required to
	// decide. Zero selects 2·log₂(n)+4 at construction time, when the
	// cluster size is known.
	StreakLen int
	// Rho is the clock-rate error bound (accepted for interface symmetry;
	// the dynamics are timeout-free beyond the round pacing).
	Rho float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta <= 0 {
		return c, fmt.Errorf("usd: Delta must be positive, got %v", c.Delta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("usd: Rho must be in [0,1), got %v", c.Rho)
	}
	if c.RoundInterval == 0 {
		c.RoundInterval = 3 * c.Delta
	}
	if c.RoundInterval <= 2*c.Delta {
		return c, fmt.Errorf("usd: RoundInterval %v must exceed a 2δ round trip (δ=%v)", c.RoundInterval, c.Delta)
	}
	if c.StreakLen < 0 {
		return c, fmt.Errorf("usd: StreakLen must be ≥ 0, got %d", c.StreakLen)
	}
	return c, nil
}

// defaultStreak is the decision streak for a cluster of n: twice the
// opinion-fraction analysis' log₂(n) plus slack, so a single-sample
// protocol's chance of a lucky pre-convergence streak is ≤ 1/n² per window.
func defaultStreak(n int) int {
	return 2*bits.Len(uint(n)) + 4
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

// durable is the stable-storage image: the opinion survives a restart so a
// revived process rejoins the dynamics where it left off.
type durable struct {
	Opinion   consensus.Value
	Undecided bool
	Decided   bool
}

// Process is one USD participant.
type Process struct {
	id  consensus.ProcessID
	n   int
	cfg Config
	env consensus.Environment

	// st is the durable image, persisted through a pointer on every
	// change.
	st    durable
	round int64
	// sample collects the current round's reply (USD samples one process
	// per round); got counts how many arrived.
	sample  consensus.Value
	sampleU bool
	got     int
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
		// Answer with the current state; decided processes answer with
		// their decision, pulling stragglers forward.
		p.env.Send(from, Reply{Round: m.Round, Opinion: p.st.Opinion, Undecided: p.st.Undecided})
	case Reply:
		if p.st.Decided || m.Round != p.round || p.got >= 1 {
			return
		}
		p.sample = m.Opinion
		p.sampleU = m.Undecided
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
	if p.got == 1 {
		p.step()
		if p.st.Decided {
			return
		}
	}
	p.beginRound()
	p.armRound()
}

// beginRound starts the next sampling round: pick one uniformly random
// process (self included, as the dynamics prescribe) and query its state.
func (p *Process) beginRound() {
	p.round++
	p.got = 0
	peer := consensus.ProcessID(p.env.Rand().Intn(p.n))
	p.env.Send(peer, Query{Round: p.round})
}

// armRound schedules the next round tick with fresh jitter.
func (p *Process) armRound() {
	jitter := time.Duration(p.env.Rand().Int63n(int64(p.cfg.Delta)))
	p.env.SetTimer(roundTimer, p.cfg.RoundInterval+jitter)
}

// step applies the USD update rule to the completed round's sample and
// advances the decision streak.
func (p *Process) step() {
	// Unanimity is judged on the pre-update state: an opinionated process
	// whose sample matches keeps its opinion, so the update is a no-op on
	// exactly the rounds that extend the streak.
	unanimous := !p.st.Undecided && !p.sampleU && p.sample == p.st.Opinion
	switch {
	case p.st.Undecided:
		if !p.sampleU {
			p.st.Opinion = p.sample
			p.st.Undecided = false
			p.persist()
		}
	case p.sampleU:
		// Sampling an undecided process changes nothing.
	case p.sample != p.st.Opinion:
		p.st.Undecided = true
		p.persist()
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
		// One broadcast per threshold decision; adopters stay silent, so
		// the decision wave is O(deciders·n) deliveries, not O(n²) always.
		p.env.Broadcast(Decided{Val: p.st.Opinion})
	}
}

// adopt takes a decision learned from a Decided broadcast. Decisions are
// sticky: a process that already decided ignores later broadcasts (any
// conflict is the original deciders' and the safety checker flags it).
func (p *Process) adopt(v consensus.Value) {
	if p.st.Decided {
		return
	}
	p.st.Decided = true
	p.st.Opinion = v
	p.st.Undecided = false
	p.streak = 0
	p.persist()
	p.env.CancelTimer(roundTimer)
	p.env.Decide(v)
}

// persist writes the durable image; failures are logged, not fatal (the
// in-memory state remains correct for this incarnation).
//
//repro:hotpath
func (p *Process) persist() {
	if err := p.env.Store().Put(stateKey, &p.st); err != nil {
		p.env.Logf("usd: persist: %v", err)
	}
}
