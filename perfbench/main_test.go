package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the set-up timer starts probe copies of it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs the benchmark on the tiny load and returns its log and the
// parsed final line.
func runTiny(t *testing.T, workload string, trace int) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "1", "--seconds", "0",
		"--trace", fmt.Sprint(trace), "--size", "tiny"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not the result: %v", workload, trace, err)
	}
	return out.String(), res
}

func TestMeasuredWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var listed, measured []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		if w.measured {
			measured = append(measured, w.name)
		}
	}
	sort.Strings(listed)
	sort.Strings(measured)
	if strings.Join(listed, ",") != strings.Join(measured, ",") {
		t.Fatalf("BENCHMARK.json lists %v, the benchmark measures %v", listed, measured)
	}
}

// Every workload prints every metric BENCHMARK.json names, with its unit,
// and the measured workloads pass every check.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{spec.EndToEnd, spec.PerLayer} {
			log, res := runTiny(t, w.name, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(log, fmt.Sprintf("metric %s = ", m.Name)) {
					t.Errorf("%s trace=%d: log does not print %s", w.name, trace, m.Name)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d", w.name, trace, res.Attempted)
			}
			if w.measured && (!res.Correct || res.Failed != 0) {
				t.Errorf("%s trace=%d: correct=%t failed=%d\n%s", w.name, trace, res.Correct, res.Failed, log)
			}
		}
	}
}

// Boundary tracing must not perturb the simulation: traced and untraced
// passes give byte-equal outcomes and virtual-time metrics.
func TestTracedPassesMatchUntraced(t *testing.T) {
	for _, name := range []string{"paper-grid", "population"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := options{w: w, seed: 3, size: sizeTiny}
		if _, err := setUp(opt, nil); err != nil {
			t.Fatal(err)
		}
		plain, err := runPass(w, sizeTiny, opt.seed, false)
		if err != nil {
			t.Fatal(err)
		}
		boundary.reset()
		traced, err := runPass(w, sizeTiny, opt.seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if boundary.handlerCalls == 0 || boundary.sends == 0 {
			t.Errorf("%s: the traced pass recorded no boundary calls: %+v", name, *boundary)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced outcomes %s differ from untraced %s", name, traced.digest, plain.digest)
		}
		a, b := fmt.Sprintf("%+v", plain.latency()), fmt.Sprintf("%+v", traced.latency())
		if a != b {
			t.Errorf("%s: virtual metrics differ:\n untraced %s\n traced   %s", name, a, b)
		}
	}
}

// A pass split into chunks runs exactly the grid's runs, in the grid's
// order: it digests to the same offered load and outcomes as the grid run
// whole.
func TestSplitGridRunsTheWholeGrid(t *testing.T) {
	w, err := lookupWorkload("paper-grid")
	if err != nil {
		t.Fatal(err)
	}
	w.chunkSeeds = 2 // the tiny grid has 3 seeds: blocks of 2 and 1
	g := w.grid(sizeTiny, 5)
	chunks, err := splitGrid(g, w.chunkSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(g.Axes[0].Values) * len(g.Base.Protocols) * 2; len(chunks) != want {
		t.Errorf("%d chunks, want %d", len(chunks), want)
	}
	split, err := runPass(w, sizeTiny, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	var checks []string
	for _, c := range g.Base.Checks {
		checks = append(checks, c.Name())
	}
	whole := &pass{}
	var offered, outcomes []string
	for ci, cell := range rep.Cells {
		whole.addCell(ci, cell, g.Base.BaseSeed, checks, &offered, &outcomes)
	}
	if got, want := split.fingerprint, fingerprint(offered); got != want {
		t.Errorf("split offered load %s, whole grid %s", got, want)
	}
	if got, want := split.digest, fingerprint(outcomes); got != want {
		t.Errorf("split outcomes %s, whole grid %s", got, want)
	}
	if split.runs != whole.runs || split.failed != 0 {
		t.Errorf("split ran %d runs (%d failed), whole grid %d", split.runs, split.failed, whole.runs)
	}
}

func TestFuncLayer(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/core/modpaxos.(*Process).HandleMessage":         "core",
		"repro/internal/core/consensus.(*SafetyChecker).RecordDecision": "consensus",
		"repro/internal/sim.(*Engine).Step":                             "sim",
		"repro/internal/simnet.(*Node).Send":                            "simnet",
		"repro/internal/harness.Run":                                    "scenario",
		"repro/internal/rsm.(*replica).route":                           "rsm",
		"repro/internal/clock.Drift.Local":                              "other",
		"runtime.mallocgc":                                              "",
	} {
		if got := funcLayer(name); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("rsm-steady")
	for i := 0; i < 5; i++ {
		if _, err := runPass(w, sizeTiny, int64(i), false); err != nil {
			prof.stop()
			t.Fatal(err)
		}
	}
	shares, samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples collected")
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
}
