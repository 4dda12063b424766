package main

import "time"

// The host's core speed drifts: on a shared 2-vCPU VM the same pass ran
// 10-20% slower for minutes at a time, with the same seed and binary,
// while CPU time stolen by the hypervisor stayed near zero. A fixed
// integer loop, timed before every pass, drifts with it: across runs its
// time correlated with the benchmark's rate (0.72 on paper-grid, 0.78 on
// rsm-steady). units_per_cpu_s therefore scales each run's CPU time to
// the reference core speed, the speed at which the loop takes
// referenceCoreLoopNs. The loop depends on nothing in the repository, so
// a change to the program cannot move it.

// referenceCoreLoopNs is coreLoop's median time on the machine the
// baselines were taken on (Intel Xeon, 2.0 GHz, go1.24).
const referenceCoreLoopNs = 5_255_000

// coreLoopSink keeps coreLoop's result alive.
var coreLoopSink uint64

// coreLoop times a fixed, allocation-free chain of integer operations
// that fits in registers, so that only the core's speed moves its time.
func coreLoop() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	d := time.Since(t0)
	coreLoopSink += x
	return d
}
