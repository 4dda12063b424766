package rsmbench

import (
	"testing"
	"time"
)

// allocCeilingPerOp bounds the host allocations one committed op costs on
// a small steady-state load, set-up included. The serving path measured
// 43.4 here before its per-message string building and boxing were
// removed, and 17.4 after; the ceiling leaves room for small drift but
// not for one of those costs to come back.
const allocCeilingPerOp = 21

func TestServingPathAllocsPerOp(t *testing.T) {
	cfg := Config{
		N: 3, Delta: 2 * time.Millisecond, Clients: 32, Ops: 50,
		MaxBatch: 8, MaxInFlight: 4, CompactEvery: 64, Seed: 1,
	}
	var ops int64
	run := func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("run failed: completed=%v violations=%v", res.Completed, res.Violations)
		}
		ops = res.TotalOps
	}
	run() // warm gob type info and other one-time caches
	perOp := testing.AllocsPerRun(3, run) / float64(ops)
	t.Logf("%.2f allocs per committed op (%d ops)", perOp, ops)
	if perOp > allocCeilingPerOp {
		t.Fatalf("%.2f allocs per committed op, ceiling %d — the RSM serving path regressed", perOp, allocCeilingPerOp)
	}
}
