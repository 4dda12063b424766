package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/rsmbench"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// Every workload is written out here, not looked up in the scenario
// library: the library and rsmbench are the load generators under test, so
// the offered load must not move when they change. A fingerprint of the
// load the program actually received (runs per protocol, n and seed
// offset; ops per client, issue interval, crash times) is pinned in
// pinnedFingerprints, and a run whose fingerprint drifts fails.

// size selects how much load one pass offers. "full" is what the timed
// runs use; "tiny" exists for the benchmark's own tests.
type size string

const (
	sizeFull size = "full"
	sizeTiny size = "tiny"
)

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// Exactly one of grid and rsm is set. grid builds the scenario grid
	// of one pass, whose units are simulated runs; rsm builds the rsmbench
	// configs of one pass, whose units are committed client ops.
	grid func(sz size, seed int64) scenario.Grid
	rsm  func(sz size, seed int64) []rsmbench.Config
	// chunkSeeds is how many seeds of one protocol and axis value a
	// scenario pass times as one chunk.
	chunkSeeds int
	// measured reports whether the workload is listed in BENCHMARK.json.
	measured bool
}

// The four visible protocols, named explicitly so that a protocol
// registered later does not join the grid.
var paperProtocols = []harness.Protocol{
	harness.TraditionalPaxos, harness.ModifiedPaxos, harness.RoundBased, harness.ModifiedBConsensus,
}

// baseSeed maps the benchmark seed to the first simulator seed of a pass.
// Distinct benchmark seeds give disjoint simulator seed ranges.
func baseSeed(seed int64) int64 { return seed*100_000 + 1 }

var workloads = []workload{
	{
		name:       "paper-grid",
		chunkSeeds: 32,
		why:        "chaos-monkey grid (p=0.5 pre-TS drops, checked against the ε+3τ+5δ bound) over n∈{5,9,17} × 4 protocols: the sweep path the repo exists for; never touches rsm",
		measured:   true,
		grid: func(sz size, seed int64) scenario.Grid {
			seeds := 128
			if sz == sizeTiny {
				seeds = 3
			}
			return scenario.Grid{
				Base: scenario.Spec{
					Name:      "paper-grid",
					Protocols: paperProtocols,
					Net: func(n int, delta, ts time.Duration) simnet.Policy {
						return simnet.Chaos{DropProb: 0.5}
					},
					Checks: []scenario.Check{
						scenario.Termination{}, scenario.Agreement{}, scenario.Validity{}, scenario.LatencyBound{},
					},
					Seeds:    seeds,
					BaseSeed: baseSeed(seed),
					KeepRuns: true,
				},
				Axes:    []scenario.Axis{scenario.NAxis(5, 9, 17)},
				Workers: 1,
			}
		},
	},
	{
		name:       "population",
		chunkSeeds: 12,
		why:        "usd, 3majority and 2choices at n=1000 on the per-worker arena: multicast fan-out, engine heap and message boxing dominate; never touches rsm",
		// Not in BENCHMARK.json: its rate moves with the seed as well as
		// with the host (see README.md).
		measured: false,
		grid: func(sz size, seed int64) scenario.Grid {
			n, seeds := 1000, 12
			if sz == sizeTiny {
				n, seeds = 100, 2
			}
			return scenario.Grid{
				Base: scenario.Spec{
					Name:            "population",
					Protocols:       []harness.Protocol{"usd", "3majority", "2choices"},
					N:               n,
					StableFromStart: true,
					OpinionPool:     2,
					Checks:          scenario.DefaultChecks(),
					Seeds:           seeds,
					BaseSeed:        baseSeed(seed),
					KeepRuns:        true,
				},
				Workers: 1,
			}
		},
	},
	{
		name:     "rsm-steady",
		why:      "rsmbench on sim, N=3, 32 closed-loop clients, batch 8, K=4, compaction every 64: per-op host cost of the serving path; no multicast or population work",
		measured: true,
		rsm: func(sz size, seed int64) []rsmbench.Config {
			runs, ops := 4, 300
			if sz == sizeTiny {
				runs, ops = 1, 20
			}
			out := make([]rsmbench.Config, runs)
			for i := range out {
				out[i] = rsmbench.Config{
					N: 3, Delta: 2 * time.Millisecond, Clients: 32, Ops: ops,
					MaxBatch: 8, MaxInFlight: 4, CompactEvery: 64,
					Seed: baseSeed(seed) + int64(i),
				}
			}
			return out
		},
	},
	{
		name: "rsm-failover",
		why:  "open-loop clients (32 × one op per 8ms) through a leader crash and restart with compaction every 32: failover, redirect and snapshot catch-up",
		// Not in BENCHMARK.json: the parent commit loses acknowledged ops
		// on this load (see README.md), so every run reports failures.
		measured: false,
		rsm: func(sz size, seed int64) []rsmbench.Config {
			runs, ops := 2, 300
			if sz == sizeTiny {
				runs, ops = 1, 150
			}
			out := make([]rsmbench.Config, runs)
			for i := range out {
				out[i] = rsmbench.Config{
					N: 3, Delta: 2 * time.Millisecond, Clients: 32, Ops: ops,
					MaxBatch: 8, MaxInFlight: 4, CompactEvery: 32,
					OpenInterval:  8 * time.Millisecond,
					CrashLeaderAt: 300 * time.Millisecond, RestartLeaderAt: 800 * time.Millisecond,
					Seed: baseSeed(seed) + int64(i),
				}
			}
			return out
		},
	},
}

// pinnedFingerprints holds the fingerprint of each workload's offered
// load, per size. Changing a workload on purpose means updating its entry
// here, and the baseline in baseline.json with it.
var pinnedFingerprints = map[string]string{
	"paper-grid/full":   "b722a2ff9e9ab746",
	"paper-grid/tiny":   "70b1aaed4810240f",
	"population/full":   "c7f66ace5b24c3db",
	"population/tiny":   "e53207a779e5938e",
	"rsm-steady/full":   "e99ae17f80b95f85",
	"rsm-steady/tiny":   "956536102609c753",
	"rsm-failover/full": "6c9594f07864401e",
	"rsm-failover/tiny": "cbae26c36a18d0ee",
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// fingerprint hashes a canonical description of the offered load. Seeds
// enter as offsets from the pass's base seed, so the fingerprint is the
// same for every benchmark seed.
func fingerprint(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkFingerprint compares the offered load against the pinned value.
func checkFingerprint(w workload, sz size, got string) error {
	key := w.name + "/" + string(sz)
	if want := pinnedFingerprints[key]; got != want {
		return fmt.Errorf("offered load of %s drifted: fingerprint %s, pinned %q", key, got, want)
	}
	return nil
}
