package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/rsmbench"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// pass is one execution of a workload's fixed offered load. Its virtual
// outcomes depend only on the seed; its host costs are what the timed
// loop measures.
type pass struct {
	units     int64 // completed units: simulated runs, or committed ops
	attempted int64
	failed    int64
	hostNs    int64
	cpuNs     int64 // process CPU time: user and system, every thread
	coreNs    int64 // coreLoop's time just before the pass
	mallocs   uint64
	bytes     uint64

	fingerprint string
	// digest hashes every unit's virtual outcome; two passes of one seed
	// must agree on it, traced or not.
	digest string
	// latencies are per-run decision latencies after TS in δ (scenario
	// workloads); commit is the merged commit-latency histogram (rsm).
	latencies []float64
	commit    *trace.Histogram
	delta     time.Duration

	// Counters read from the runs' collectors and results.
	runs      int64
	sent      int64
	dropped   int64
	delivered int64
	rsm       rsmCounts

	problems []string // failed checks, for the log
}

// rsmCounts aggregates the rsmbench results of one pass.
type rsmCounts struct {
	virtualNs  int64 // summed run durations (virtual)
	slots      int64
	retries    int64
	logKeysMax int64
	batch      *trace.Histogram
	slot       *trace.Histogram
	failover   *trace.Histogram
	catchup    *trace.Histogram
}

// runPass executes one pass. traced selects the boundary-traced protocol
// variants (scenario workloads only). Every pass starts from a collected
// heap, and the core's speed is timed just before it.
func runPass(w workload, sz size, seed int64, traced bool) (*pass, error) {
	runtime.GC()
	core := coreLoop()
	var p *pass
	var err error
	if w.grid != nil {
		p, err = runScenarioPass(w, sz, seed, traced)
	} else {
		p, err = runRSMPass(w, sz, seed)
	}
	if err != nil {
		return nil, err
	}
	p.coreNs = int64(core)
	return p, nil
}

// measure runs f as one timed chunk of p: it adds f's host time, CPU
// time and allocations to p's totals.
func measure(p *pass, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	err := f()
	p.hostNs += int64(time.Since(t0))
	p.cpuNs += cpuTime() - c0
	runtime.ReadMemStats(&after)
	p.mallocs += after.Mallocs - before.Mallocs
	p.bytes += after.TotalAlloc - before.TotalAlloc
	return err
}

// cpuTime is the process's CPU time so far, in nanoseconds: user and
// system time of every thread, the garbage collector's included.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func runScenarioPass(w workload, sz size, seed int64, traced bool) (*pass, error) {
	g := w.grid(sz, seed)
	if traced {
		protos := make([]harness.Protocol, len(g.Base.Protocols))
		for i, p := range g.Base.Protocols {
			protos[i] = tracedName(p)
		}
		g.Base.Protocols = protos
	}
	chunks, err := splitGrid(g, w.chunkSeeds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var checks []string
	for _, c := range g.Base.Checks {
		checks = append(checks, c.Name())
	}
	p := &pass{}
	var offered, outcomes []string
	ci := 0
	// Each chunk's report is digested and dropped before the next chunk
	// runs, so the live heap stays one chunk's size.
	for _, chunk := range chunks {
		var rep *scenario.GridReport
		if err := measure(p, func() error {
			var err error
			rep, err = chunk.Run()
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, cell := range rep.Cells {
			p.addCell(ci, cell, g.Base.BaseSeed, checks, &offered, &outcomes)
			ci++
		}
	}
	p.fingerprint = fingerprint(offered)
	p.digest = fingerprint(outcomes)
	return p, nil
}

// addCell digests one executed grid cell into p: its offered load, its
// outcomes and its failed checks.
func (p *pass) addCell(ci int, cell scenario.GridCell, baseSeed int64, checks []string, offered, outcomes *[]string) {
	failedRun := make(map[string]bool)
	for _, v := range cell.Report.Violations {
		key := fmt.Sprintf("%s/%d", untracedName(v.Protocol), v.Seed)
		failedRun[key] = true
		p.problems = append(p.problems, fmt.Sprintf("cell %d %s seed %d: %s: %s",
			ci, untracedName(v.Protocol), v.Seed, v.Check, v.Detail))
	}
	for _, r := range cell.Report.Runs() {
		proto := untracedName(r.Protocol)
		off := r.Seed - baseSeed
		cfg := r.Cfg
		*offered = append(*offered, fmt.Sprintf("%s n=%d seed=+%d delta=%v ts=%v policy=%T%+v pool=%d horizon=%v checks=%s",
			proto, cfg.N, off, cfg.Delta, cfg.TS, cfg.Policy, cfg.Policy, cfg.OpinionPool, cfg.Horizon, strings.Join(checks, ",")))
		res := r.Res
		*outcomes = append(*outcomes, fmt.Sprintf("%s n=%d seed=+%d decided=%t value=%q last=%d lat=%d msgs=%d types=%v",
			proto, cfg.N, off, res.Decided, res.Value, res.LastDecision, res.LatencyAfterTS, res.Messages, sortedCounts(res.MessagesByType)))
		p.runs++
		p.attempted++
		p.units++
		if !res.Decided || failedRun[fmt.Sprintf("%s/%d", proto, r.Seed)] {
			p.failed++
		}
		if res.Decided {
			p.latencies = append(p.latencies, float64(res.LatencyAfterTS)/float64(cfg.Delta))
		}
		p.delta = cfg.Delta
		if c := res.Collector; c != nil {
			p.sent += int64(c.TotalSent())
			p.dropped += int64(c.TotalDropped())
			for _, n := range c.DeliveredByType() {
				p.delivered += int64(n)
			}
		}
	}
}

// splitGrid cuts a grid into chunks of one axis value, one protocol and
// at most seeds consecutive seeds, in the grid's own run order. Together
// the chunks run exactly the grid's runs, with the same seeds.
func splitGrid(g scenario.Grid, seeds int) ([]scenario.Grid, error) {
	if len(g.Axes) > 1 {
		return nil, fmt.Errorf("splitGrid: %d axes, want at most one", len(g.Axes))
	}
	values := []*scenario.AxisValue{nil}
	if len(g.Axes) == 1 {
		values = values[:0]
		for i := range g.Axes[0].Values {
			values = append(values, &g.Axes[0].Values[i])
		}
	}
	seeds = max(seeds, 1)
	var out []scenario.Grid
	for _, v := range values {
		for _, proto := range g.Base.Protocols {
			for first := 0; first < g.Base.Seeds; first += seeds {
				c := g
				c.Base.Protocols = []harness.Protocol{proto}
				c.Base.BaseSeed = g.Base.BaseSeed + int64(first)
				c.Base.Seeds = min(seeds, g.Base.Seeds-first)
				if v != nil {
					c.Axes = []scenario.Axis{{Name: g.Axes[0].Name, Values: []scenario.AxisValue{*v}}}
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// opRef matches the (client, seq) an rsmbench invariant names.
var opRef = regexp.MustCompile(`client (\d+) seq (\d+)`)

func runRSMPass(w workload, sz size, seed int64) (*pass, error) {
	cfgs := w.rsm(sz, seed)
	p := &pass{commit: trace.NewHistogram(trace.UnitNanos)}
	p.rsm.batch = trace.NewHistogram(trace.UnitCount)
	p.rsm.slot = trace.NewHistogram(trace.UnitNanos)
	p.rsm.failover = trace.NewHistogram(trace.UnitNanos)
	p.rsm.catchup = trace.NewHistogram(trace.UnitNanos)
	results := make([]*rsmbench.Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		if err := measure(p, func() error {
			res, err := rsmbench.Run(cfg)
			if err != nil {
				return err
			}
			results = append(results, res)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	var offered, outcomes []string
	base := baseSeed(seed)
	for i, res := range results {
		offered = append(offered, fmt.Sprintf(
			"run=%d n=%d clients=%d ops=%d keys=%d batch=%d inflight=%d queue=%d linger=%v open=%v crash=%v restart=%v compact=%d failover=%v seed=+%d",
			i, res.N, res.Clients, res.Ops, res.Keys, res.MaxBatch, res.MaxInFlight, res.MaxQueue, res.Linger,
			res.OpenInterval, res.CrashLeaderAt, res.RestartLeaderAt, res.CompactEvery, res.FailoverTimeout, res.Seed-base))
		js, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		outcomes = append(outcomes, string(js))

		attempted := int64(res.Clients * res.Ops)
		failed := attempted - res.TotalOps
		flagged := make(map[string]bool)
		for _, v := range res.Violations {
			p.problems = append(p.problems, fmt.Sprintf("run %d: %s", i, v))
			if m := opRef.FindStringSubmatch(v); m != nil {
				flagged[m[1]+"/"+m[2]] = true
			} else {
				failed++ // a violation that names no single op counts once
			}
		}
		failed += int64(len(flagged))
		if failed > attempted {
			failed = attempted
		}
		p.attempted += attempted
		p.failed += failed
		p.units += res.TotalOps
		p.runs++
		p.delta = cfgs[i].Delta

		c := res.Collector()
		p.sent += int64(c.TotalSent())
		p.dropped += int64(c.TotalDropped())
		for _, n := range c.DeliveredByType() {
			p.delivered += int64(n)
		}
		for _, h := range []struct {
			name string
			into *trace.Histogram
		}{
			{trace.HistCommitLatency, p.commit},
			{trace.HistBatchSize, p.rsm.batch},
			{trace.HistSlotLatency, p.rsm.slot},
			{trace.HistFailoverLatency, p.rsm.failover},
			{trace.HistCatchupLatency, p.rsm.catchup},
		} {
			if src, ok := c.HistogramCopy(h.name); ok {
				if err := h.into.Merge(&src); err != nil {
					return nil, fmt.Errorf("%s: merge %s: %w", w.name, h.name, err)
				}
			}
		}
		p.rsm.virtualNs += int64(res.Duration)
		p.rsm.slots += res.Slots
		p.rsm.retries += res.Retries
		for _, k := range res.LogKeys {
			if k > p.rsm.logKeysMax {
				p.rsm.logKeysMax = k
			}
		}
	}
	p.fingerprint = fingerprint(offered)
	p.digest = fingerprint(outcomes)
	return p, nil
}

// sortedCounts renders a per-type count map in key order.
func sortedCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s:%d,", k, m[k])
	}
	return b.String()
}
