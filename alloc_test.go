package repro_test

// Allocation-regression tests for the simulator hot path. The engine-level
// zero-alloc invariants (schedule/cancel churn, steady-state Step, the
// delivery sink) are pinned in internal/sim; this file pins the end-to-end
// budget: a complete modified-Paxos run through the harness — engine,
// network, trace collector, safety checker, protocol state machines, and
// stable storage together. The budget is far above the engine's structural
// zero (protocols box messages and persist state), but far below the
// pre-overhaul cost (~2100 allocs/run); a regression back to per-event or
// per-message allocation trips it immediately.

import (
	"testing"
	"time"

	"repro"
	"repro/internal/simnet"
)

// allocBudgetFullRun bounds allocations for one N=5 modified-Paxos run
// (unstable start, TS=200ms). Measured ~355 allocs/run after the pooled
// event queue, closure-free routing, interned counters, and plain-data
// stable storage; the pre-overhaul simulator needed ~2100.
const allocBudgetFullRun = 600

// allocBudgetObservedRun bounds the same run with Observe on (phase spans,
// latency histograms). Observation adds bounded per-run structures — the
// span ring, interned histogram tables, a handful of per-process
// observations — never per-event or per-message allocation, so the budget
// is a fixed increment over the plain run, not a multiple of it.
const allocBudgetObservedRun = allocBudgetFullRun + 300

func TestSingleRunAllocBudget(t *testing.T) {
	cfg := repro.Config{
		Protocol: repro.ModifiedPaxos, N: 5,
		Delta: 10 * time.Millisecond, TS: 200 * time.Millisecond,
		Rho: 0.01, Seed: 7,
	}
	run := func() {
		res, err := repro.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatal("run did not decide")
		}
	}
	run() // warm caches (gob type info, plain-data type table)
	allocs := testing.AllocsPerRun(20, run)
	if allocs > allocBudgetFullRun {
		t.Fatalf("full run allocated %.0f allocs, budget %d — the simulator hot path regressed",
			allocs, allocBudgetFullRun)
	}

	// The observability instrumentation must stay a disabled branch on this
	// path: the same budget holds, because Observe=false above already runs
	// every instrumented call site (spans, histograms) with collection off.
	// With Observe=true the cost is a bounded increment.
	cfg.Observe = true
	run()
	observed := testing.AllocsPerRun(20, run)
	if observed > allocBudgetObservedRun {
		t.Fatalf("observed run allocated %.0f allocs, budget %d — observation is no longer O(1) per run",
			observed, allocBudgetObservedRun)
	}
	t.Logf("plain %.0f allocs/run, observed %.0f", allocs, observed)
}

// allocBudgetChaosBConsensusRun bounds allocations for one N=9 modified
// B-Consensus run under the paper grid's chaos-monkey pre-TS network (half
// of all messages dropped, the survivors delayed up to 2·TS). Every
// received w-abcast enters the oracle hold-back queue and every vote
// persists the Lamport clock, so per-message and per-persist allocation
// shows up here first. Measured ~860 allocs/run with the hold-back item
// reusing the message's box, one boxed Wab per round for stage-1
// heartbeats, and state persisted through a pointer into a store-owned
// cell; the same run cost ~2440 with a second box per Wab and a boxed
// state copy per persist.
const allocBudgetChaosBConsensusRun = 1100

func TestChaosBConsensusRunAllocBudget(t *testing.T) {
	cfg := repro.Config{
		Protocol: repro.ModifiedBConsensus, N: 9,
		Delta: 10 * time.Millisecond, TS: 200 * time.Millisecond,
		Policy: simnet.Chaos{DropProb: 0.5},
		Rho:    0.01, Seed: 7,
	}
	run := func() {
		res, err := repro.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatal("run did not decide")
		}
	}
	run() // warm caches (plain-data type table)
	allocs := testing.AllocsPerRun(20, run)
	if allocs > allocBudgetChaosBConsensusRun {
		t.Fatalf("chaos B-Consensus run allocated %.0f allocs, budget %d — a per-message or per-persist allocation came back",
			allocs, allocBudgetChaosBConsensusRun)
	}
	t.Logf("%.0f allocs/run", allocs)
}
