// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed host time and prints every metric by name and unit,
// ending with a one-line JSON result:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 55 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: host cost (units per
// CPU second, allocations, peak RSS, set-up time) and virtual-time latency. With
// --trace 1 it reports the per-layer metrics from a separate traced run,
// together with that run's overhead. Workloads, metrics and their expected
// interactions are described in README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	size    size
}

// setupProbes is how many fresh processes time the set-up.
const setupProbes = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-grid, population, rsm-steady, rsm-failover")
	seed := fs.Int64("seed", 1, "workload seed; the same seed offers the same load")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	sizeFlag := fs.String("size", string(sizeFull), "offered load per pass: full, or tiny for tests")
	probe := fs.Bool("probe", false, "set up once, print \"ready\" and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	opt := options{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, size: size(*sizeFlag)}
	if opt.size != sizeFull && opt.size != sizeTiny {
		fmt.Fprintf(stderr, "perfbench: unknown size %q\n", *sizeFlag)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seed < 0 {
		fmt.Fprintf(stderr, "perfbench: --seed must be non-negative, got %d\n", *seed)
		return 2
	}
	if *probe {
		if _, err := setUp(opt, nil); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	res, err := bench(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// boundary collects the traced protocol variants' calls. It is registered
// with the protocol registry once per process.
var boundary = &boundaryStats{}

// setUp prepares a workload: it registers the traced protocol variants and
// runs one tiny warm-up pass, so lazy initialisation and caches are done
// before anything is timed. The warm-up's offered load is checked against
// its pinned fingerprint.
func setUp(opt options, log io.Writer) (*pass, error) {
	if opt.w.grid != nil {
		if err := registerTraced(boundary, opt.w.grid(sizeTiny, opt.seed).Base.Protocols); err != nil {
			return nil, err
		}
	}
	warm, err := runPass(opt.w, sizeTiny, opt.seed, false)
	if err != nil {
		return nil, err
	}
	if err := checkFingerprint(opt.w, sizeTiny, warm.fingerprint); err != nil {
		return nil, err
	}
	if log != nil {
		logProblems(log, "warm-up check failed:", warm.problems)
	}
	return warm, nil
}

// setupSeconds starts setupProbes fresh copies of this program in probe
// mode and times each from process start until it is ready to time its
// first unit.
func setupSeconds(opt options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe", "--workload", opt.w.name,
			"--seed", strconv.FormatInt(opt.seed, 10), "--size", string(opt.size))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: got %q (%v)", line, readErr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// bench runs the workload and assembles the result.
func bench(opt options, log io.Writer) (*result, error) {
	w := opt.w
	fmt.Fprintf(log, "perfbench workload=%s seed=%d seconds=%g trace=%t size=%s\n", w.name, opt.seed, opt.seconds, opt.trace, opt.size)
	fmt.Fprintf(log, "host: %s\n", hostLine())
	fmt.Fprintf(log, "why: %s\n", w.why)

	var setupS float64
	if !opt.trace {
		probes, err := setupSeconds(opt)
		if err != nil {
			return nil, err
		}
		setupS = median(probes)
		fmt.Fprintf(log, "set-up probes (s): %s\n", floats(probes))
	}
	warm, err := setUp(opt, log)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "this process: %.3fs from start to the first timed unit\n", time.Since(processStart).Seconds())

	runner := &loop{opt: opt, log: log, correct: warm.failed == 0}
	var res *result
	if opt.trace {
		res, err = runner.traced()
	} else {
		res, err = runner.endToEnd(setupS)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = runner.correct
	res.Attempted, res.Failed = runner.attempted, runner.failed
	fmt.Fprintf(log, "attempted=%d failed=%d failed_share=%.6f correct=%t\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	return res, nil
}

// processStart approximates the process start time for the log line.
var processStart = time.Now()

// loop repeats passes of one workload and checks each one.
type loop struct {
	opt     options
	log     io.Writer
	first   *pass // the first timed pass: the reference for every later one
	correct bool

	attempted, failed int64
}

// passes runs passes for at least the given host time (and at least one).
func (l *loop) passes(seconds float64, traced bool) ([]*pass, error) {
	var out []*pass
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		p, err := runPass(l.opt.w, l.opt.size, l.opt.seed, traced)
		if err != nil {
			return nil, err
		}
		if err := checkFingerprint(l.opt.w, l.opt.size, p.fingerprint); err != nil {
			return nil, err
		}
		if l.first == nil {
			l.first = p
			fmt.Fprintf(l.log, "offered per pass: %d units in %d runs, fingerprint %s (pinned)\n", p.attempted, p.runs, p.fingerprint)
			logProblems(l.log, "check failed:", p.problems)
		}
		if p.digest != l.first.digest {
			l.correct = false
			fmt.Fprintf(l.log, "check failed: pass %d (traced=%t) outcome digest %s differs from the first pass's %s\n",
				len(out), traced, p.digest, l.first.digest)
		}
		if p.failed > 0 {
			l.correct = false
		}
		l.attempted += p.attempted
		l.failed += p.failed
		out = append(out, p)
	}
	return out, nil
}

// cpuRates returns each pass's units per CPU second of this process: user
// and system time of every thread, the garbage collector's included. Where
// the kernel accounts stolen time apart from the task's, time the host
// gives to other tenants is not counted, so the rate moves less with the
// host's load than a rate per wall-clock second does.
func cpuRates(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(max(p.units, 1)) / (float64(max(p.cpuNs, 1)) / 1e9)
	}
	return out
}

// wallRates returns each pass's units per wall-clock second.
func wallRates(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(max(p.units, 1)) / (float64(max(p.hostNs, 1)) / 1e9)
	}
	return out
}

func (l *loop) endToEnd(setupS float64) (*result, error) {
	ps, err := l.passes(l.opt.seconds, false)
	if err != nil {
		return nil, err
	}
	var allocs, bytes []float64
	for _, p := range ps {
		u := float64(max(p.units, 1))
		allocs = append(allocs, float64(p.mallocs)/u)
		bytes = append(bytes, float64(p.bytes)/u)
	}
	rs, ws := cpuRates(ps), wallRates(ps)
	var core []float64
	for _, p := range ps {
		core = append(core, float64(p.coreNs))
	}
	// A slower core makes the loop take longer and the pass take more CPU
	// time; the scale removes both.
	scale := median(core) / referenceCoreLoopNs
	lat := l.first.latency()
	fmt.Fprintf(l.log, "passes=%d units per CPU second, per pass: %s\n", len(ps), floats(rs))
	fmt.Fprintf(l.log, "units per wall-clock second, per pass: %s\n", floats(ws))
	fmt.Fprintf(l.log, "core loop: median %.4f ms over %d passes, reference %.4f ms, scale %.4f\n",
		median(core)/1e6, len(core), referenceCoreLoopNs/1e6, scale)

	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"units_per_cpu_s":    {median(rs) * scale, "1/s"},
		"allocs_per_unit":    {median(allocs), "count"},
		"bytes_per_unit":     {median(bytes), "B"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"latency_p50_delta":  {lat.p50, "delta"},
		"latency_tail_delta": {lat.tail, "delta"},
	}
	// The same numbers under the names the workload's users know them by.
	unit := "run"
	if l.opt.w.grid == nil {
		unit = "op"
	}
	fmt.Fprintf(l.log, "%ss_per_cpu_s = %.4f 1/s (at the reference core speed)\n", unit, m["units_per_cpu_s"].Value)
	fmt.Fprintf(l.log, "%ss_per_cpu_s, unscaled = %.4f 1/s\n", unit, median(rs))
	fmt.Fprintf(l.log, "%ss_per_s = %.4f 1/s (wall clock)\n", unit, median(ws))
	fmt.Fprintf(l.log, "allocs_per_%s = %.2f count\n", unit, m["allocs_per_unit"].Value)
	fmt.Fprintf(l.log, "bytes_per_%s = %.1f B\n", unit, m["bytes_per_unit"].Value)
	if l.opt.w.grid != nil {
		fmt.Fprintf(l.log, "decide_p50_delta = %.4f delta (over %d decided runs)\n", lat.p50, lat.n)
		fmt.Fprintf(l.log, "decide_tail_delta = %.4f delta (p%.2f)\n", lat.tail, lat.tailPct)
		fmt.Fprintf(l.log, "decide_edge_delta = %.4f delta (p%.2f, the highest percentile with ten runs beyond it)\n", lat.edge, lat.edgePct)
	} else {
		f := l.first
		ms := float64(f.delta) / 1e6
		fmt.Fprintf(l.log, "commit_p50_ms = %.4f ms (over %d ops)\n", lat.p50*ms, lat.n)
		fmt.Fprintf(l.log, "commit_tail_ms = %.4f ms (p%.2f)\n", lat.tail*ms, lat.tailPct)
		fmt.Fprintf(l.log, "commit_edge_ms = %.4f ms (p%.3f, the highest percentile with ten ops beyond it)\n", lat.edge*ms, lat.edgePct)
		fmt.Fprintf(l.log, "virtual_ops_per_s = %.2f 1/s\n", ratio(float64(f.units), float64(f.rsm.virtualNs)/1e9))
		fmt.Fprintf(l.log, "outage_ms = %.4f ms (longest wait of any op)\n", float64(f.commit.Max())/1e6)
	}
	fmt.Fprintf(l.log, "failed_share = %.6f\n", ratio(float64(l.failed), float64(l.attempted)))
	printMetrics(l.log, m)
	return &result{Metrics: m}, nil
}

// traced is the --trace 1 run: an untraced phase as the reference, a
// CPU-profiled phase, and (scenario workloads) a boundary-traced phase.
// Every phase must reproduce the same virtual outcomes.
func (l *loop) traced() (*result, error) {
	phases := 2.0
	if l.opt.w.grid != nil {
		phases = 3
	}
	each := l.opt.seconds / phases

	plain, err := l.passes(each, false)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	profiled, err := l.passes(each, false)
	shares, samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	base := median(cpuRates(plain))
	profOverhead := base/median(cpuRates(profiled)) - 1
	fmt.Fprintf(l.log, "cpu profile: %d samples over %d passes\n", samples, len(profiled))

	m := map[string]metric{}
	for _, layer := range profileLayers {
		name := layer + ".busy_share"
		if layer == "runtime.gc" {
			name = "runtime.gc_share"
		}
		m[name] = metric{shares[layer], "share"}
	}
	f := l.first
	m["simnet.drop_share"] = metric{ratio(float64(f.dropped), float64(f.sent)), "share"}
	m["sim.deliveries_per_run"] = metric{ratio(float64(f.delivered), float64(f.runs)), "count"}
	m["trace.profile_overhead_share"] = metric{profOverhead, "share"}

	// The boundary metrics read 0 on the rsm workloads, which have no
	// boundary-traced phase.
	var b boundaryStats
	var tracedNs, tracedRuns int64
	overhead := profOverhead
	if l.opt.w.grid != nil {
		boundary.reset()
		bt, err := l.passes(each, true)
		if err != nil {
			return nil, err
		}
		b = *boundary
		for _, p := range bt {
			tracedNs += p.hostNs
			tracedRuns += p.runs
		}
		overhead = base/median(cpuRates(bt)) - 1
		fmt.Fprintf(l.log, "boundary-traced: %d passes, %d runs\n", len(bt), tracedRuns)
	}
	perRun := func(n int64) metric { return metric{ratio(float64(n), float64(tracedRuns)), "count"} }
	m["core.calls_per_run"] = perRun(b.handlerCalls)
	m["simnet.sends_per_run"] = perRun(b.sends)
	m["simnet.timer_ops_per_run"] = perRun(b.timers)
	m["storage.ops_per_run"] = perRun(b.stores)
	m["core.ns_per_call"] = metric{ratio(float64(b.handlerNs-b.childNs), float64(b.handlerCalls)), "ns"}
	m["simnet.send_ns_per_call"] = metric{ratio(float64(b.sendNs), float64(b.sends)), "ns"}
	m["simnet.timer_ns_per_call"] = metric{ratio(float64(b.timerNs), float64(b.timers)), "ns"}
	m["storage.ns_per_call"] = metric{ratio(float64(b.storeNs), float64(b.stores)), "ns"}
	m["consensus.decide_ns_per_call"] = metric{ratio(float64(b.decNs), float64(b.decides)), "ns"}
	m["sim.remainder_share"] = metric{ratio(float64(tracedNs-b.handlerNs), float64(tracedNs)), "share"}
	m["trace.overhead_share"] = metric{overhead, "share"}

	u := float64(max(f.units, 1))
	rc := f.rsm
	for _, r := range []struct {
		name, unit string
		value      func() float64
	}{
		{"rsm.slots_per_kop", "count", func() float64 { return float64(rc.slots) * 1000 / u }},
		{"rsm.batch_mean", "count", func() float64 { return histMean(rc.batch) }},
		{"rsm.slot_p50_ms", "ms", func() float64 { return float64(rc.slot.Quantile(0.5)) / 1e6 }},
		{"rsm.msgs_per_op", "count", func() float64 { return float64(f.sent) / u }},
		{"rsm.retries_per_op", "count", func() float64 { return float64(rc.retries) / u }},
		{"rsm.failover_repair_ms", "ms", func() float64 { return float64(rc.failover.Max()) / 1e6 }},
		{"rsm.catchup_ms", "ms", func() float64 { return float64(rc.catchup.Max()) / 1e6 }},
		{"rsm.log_keys_max", "count", func() float64 { return float64(rc.logKeysMax) }},
	} {
		v := 0.0 // not measurable on the scenario workloads
		if l.opt.w.grid == nil {
			v = r.value()
		}
		m[r.name] = metric{v, r.unit}
	}
	lat := f.latency()
	fmt.Fprintf(l.log, "virtual metrics (identical in every phase, else the run is incorrect): latency_p50_delta=%v latency_tail_delta=%v digest=%s\n",
		lat.p50, lat.tail, f.digest)
	printMetrics(l.log, m)
	return &result{Metrics: m}, nil
}

// latencySummary is a pass's virtual latency distribution in units of δ.
type latencySummary struct {
	p50, tail float64
	tailPct   float64 // the percentile tail reports
	// edge is the highest percentile leaving ten samples beyond it, the
	// tail the log also prints; edgePct is its percentile.
	edge, edgePct float64
	n             int64 // samples
}

// tailQuantile is the percentile the tail metric reports when the pool
// leaves at least ten samples beyond it. The most extreme such percentile
// rests on exactly ten samples and, across seeds, spread by 15-37% of its
// median (see README.md), too much to hold a regression bound; p95 rests on
// dozens to hundreds.
const tailQuantile = 0.95

// tailOf picks the tail quantile for n samples: p95 when at least ten
// samples lie beyond it, else the highest quantile that leaves ten (or the
// maximum, for ten samples or fewer).
func tailOf(n int64) float64 {
	switch {
	case n <= 10:
		return 1
	case float64(n)*(1-tailQuantile) >= 10:
		return tailQuantile
	}
	return float64(n-10) / float64(n)
}

// edgeOf is the highest quantile leaving ten of n samples beyond it.
func edgeOf(n int64) float64 {
	if n <= 10 {
		return 1
	}
	return float64(n-10) / float64(n)
}

// latency summarises decision latency (scenario workloads) or commit
// latency (rsm workloads, from the run's power-of-two histogram, so the
// quantiles are interpolated within buckets).
func (p *pass) latency() latencySummary {
	if p.commit != nil {
		h := p.commit
		d := float64(p.delta)
		s := latencySummary{n: h.Count(), tailPct: 100 * tailOf(h.Count()), edgePct: 100 * edgeOf(h.Count())}
		s.p50 = float64(h.Quantile(0.5)) / d
		s.tail = float64(h.Quantile(tailOf(h.Count()))) / d
		s.edge = float64(h.Quantile(edgeOf(h.Count()))) / d
		return s
	}
	xs := append([]float64(nil), p.latencies...)
	sort.Float64s(xs)
	n := int64(len(xs))
	s := latencySummary{n: n, tailPct: 100 * tailOf(n), edgePct: 100 * edgeOf(n)}
	if n == 0 {
		return s
	}
	// The value at 1-based rank ceil(q·n), as trace.Histogram.Quantile
	// ranks.
	at := func(q float64) float64 {
		r := int64(math.Ceil(q * float64(n)))
		return xs[min(max(r, 1), n)-1]
	}
	s.p50 = median(xs)
	s.tail = at(tailOf(n))
	s.edge = at(edgeOf(n))
	return s
}

// logProblems logs the first few failed checks and counts the rest.
func logProblems(log io.Writer, prefix string, problems []string) {
	const shown = 20
	for i, p := range problems {
		if i == shown {
			fmt.Fprintf(log, "%s ... and %d more\n", prefix, len(problems)-shown)
			break
		}
		fmt.Fprintln(log, prefix, p)
	}
}

// printMetrics logs metrics in name order.
func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "metric %s = %v %s\n", k, m[k].Value, m[k].Unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, the runtime's view of memory obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// hostLine describes the machine a measurement was taken on.
func hostLine() string {
	cpu := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s %s/%s, %s, nproc %d, GOMAXPROCS %d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// histMean is a histogram's exact mean.
func histMean(h *trace.Histogram) float64 {
	return ratio(float64(h.Sum()), float64(h.Count()))
}
