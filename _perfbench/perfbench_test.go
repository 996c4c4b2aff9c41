package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// firstPass sets a workload up for seed and returns the digest of its
// first pass over the inputs, traced or not.
func firstPass(t *testing.T, name string, seed uint64, tr *tracer) string {
	t.Helper()
	w := workloads[name]()
	w.setup(seed)
	var canon []string
	for b := 0; b < w.passBatches(); b++ {
		r := w.batch(b, tr, &meter{count: tr != nil})
		if r.failed != 0 {
			t.Fatalf("%s seed %d batch %d: %d of %d ops failed: %v", name, seed, b, r.failed, r.ops, r.failures)
		}
		canon = append(canon, r.canon...)
	}
	return digest(canon)
}

func TestDigestIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := firstPass(t, name, 1, nil)
			if b := firstPass(t, name, 1, newTracer()); b != a {
				t.Errorf("seed 1: untraced digest %s, traced %s", a, b)
			}
			if c := firstPass(t, name, 2, nil); c == a {
				t.Errorf("seeds 1 and 2 give the same digest %s", a)
			}
		})
	}
}

// exactCounts are the probe metrics that must repeat exactly per seed.
var exactCounts = []string{
	"dse.evals_per_op", "fuzz.ecus_per_op", "fuzz.pubs_per_op", "fuzz.mesh_frac",
	"fuzz.campaign_frac", "fuzz.update_frac", "fuzz.reconfig_frac",
}

func probeCounts(t *testing.T, seed uint64) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	if bad := probe(seed, 2, newTracer(), vals); len(bad) > 0 {
		t.Fatalf("probe seed %d: %v", seed, bad)
	}
	out := map[string]float64{}
	for _, k := range exactCounts {
		out[k] = vals[k]
	}
	return out
}

func TestProbeCountsAreExact(t *testing.T) {
	a, b := probeCounts(t, 1), probeCounts(t, 1)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 twice:\n%v\n%v", a, b)
	}
	if c := probeCounts(t, 2); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 2 give the same counts %v", a)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0},  // overlaps a
		{name: "c", start: 80, end: 120, parent: 0}, // runs past op's end
		{name: "d", start: 15, end: 20, parent: 1},
	}
	want := []int64{100 - 50 - 20, 30 - 5, 30, 40, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"dynaplat/internal/sim.(*Kernel).Run", "sim"},
		{"dynaplat/internal/safety/update.StagedVerified", "safety"},
		{"dynaplat/internal/soa.(*Middleware).deliver", "soa"},
		{"dynaplat/internal/admission.Check", "other"},
		{"dynaplat.FromModel", "other"},
		{"runtime.mallocgcSmallScanNoHeader", "runtime.malloc"},
		{"runtime.gcDrain", "runtime.gc"},
		{"runtime.mapaccess1_faststr", "runtime.map"},
		{"internal/runtime/maps.(*Map).getWithoutKeySmallFastStr", "runtime.map"},
		{"aeshashbody", "runtime.map"},
		{"memeqbody", "runtime.other"},
		{"runtime.memmove", "runtime.other"},
		{"sort.Slice", "other"},
		{"main.explore", "other"},
		{"dynaplat/internal/model.(*System).AppsOn", "model"},
		{"dynaplat/internal/workload.Fleet", "workload"},
		{"dynaplat/internal/fuzz.runScenario.func3", "fuzz"},
		{"dynaplat/internal/reconfig.(*Orchestrator).replan.func1", "reconfig"},
		{"dynaplat/internal/gateway.(*Gateway).forward", "gateway"},
		{"dynaplat/internal/flexray.(*Bus).slot", "flexray"},
		{"dynaplat/internal/faults.(*Campaign).inject", "faults"},
		{"dynaplat/internal/obs.(*Registry).Counter", "obs"},
		{"dynaplat/internal/fleet.RunVehicle", "fleet"},
		{"dynaplat/internal/dse.Evaluate", "dse"},
		{"dynaplat/internal/sched.ResponseTimeAnalysis", "sched"},
		{"dynaplat/internal/platform.(*Node).release", "platform"},
		{"dynaplat/internal/can.(*Bus).arbitrate", "can"},
		{"dynaplat/internal/tsn.(*Switch).forward", "tsn"},
		{"dynaplat/internal/par.ForEach.func2", "other"},
		{"internal/chacha8rand.block", "other"},
	} {
		if got := bucketOf(c.fn); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestParseTop(t *testing.T) {
	text := `File: perfbench
Type: cpu
Showing nodes accounting for 30ms, 100% of 30ms total
      flat  flat%   sum%        cum   cum%
      20ms 66.67% 66.67%       20ms 66.67%  dynaplat/internal/sim.(*Kernel).Run
      10ms 33.33%   100%       30ms   100%  runtime.mallocgc
         0     0%   100%       30ms   100%  main.main
`
	got, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dynaplat/internal/sim.(*Kernel).Run": 20, "runtime.mallocgc": 10, "main.main": 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTop = %v, want %v", got, want)
	}
	if _, err := parseTop("no table here\n"); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the binary in step:
// the same workloads, and every metric with the unit the binary prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, binary %v", names, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		var got []metricDef
		for _, m := range listed {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("BENCHMARK.json %s\n%v\nbinary reports\n%v", kind, got, defs)
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// runJSON runs the command line and decodes its last output line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: %+v\n%s", args, res, stdout.String())
	}
	return res
}

func TestRunReportsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		res := runJSON(t, "-workload", "fuzz-oracle", "-seed", "3", "-seconds", "0.2",
			"-trace", trace, "-out", out)
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
		if trace == "1" {
			sum := 0.0
			for _, b := range cpuBuckets {
				sum += res.Metrics["cpu."+b].Value
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("cpu shares sum to %v", sum)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, "fuzz-oracle-seed3.trace.json")); err != nil {
		t.Errorf("no Chrome trace: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "fuzz-oracle", "-trace", "2"},
		{"-workload", "fuzz-oracle", "-seconds", "0"},
		{"-workload", "fuzz-oracle", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 && strings.Contains(stdout.String(), "{") {
			t.Errorf("run %v printed a result: %s", args, stdout.String())
		}
	}
}
