// Command perfbench is dynaplat's end-to-end benchmark. It generates
// every input from one seed, runs one workload (dse-explore, fleet-ota
// or fuzz-oracle) for a fixed time, checks every output, and prints its
// metrics; the last line of standard output is one JSON object.
//
//	perfbench -workload fleet-ota -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it runs the workload untraced and then traced (spans
// around every layer call plus a CPU profile), runs the layer probe, and
// reports the per-layer metrics; the spans are written as a Chrome trace
// and the profile is folded into cpu.* buckets with `go tool pprof`.
// METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_ref_s", "1/s"},
	{"op_ref_p50_ms", "ms"},
	{"op_ref_p90_ms", "ms"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics of a traced run (-trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dse.exhaustive_ms", "ms"},
		{"dse.greedy_ms", "ms"},
		{"dse.anneal_ms", "ms"},
		{"dse.pareto_ms", "ms"},
		{"dse.evals_per_op", "count"},
		{"dse.evaluate_us", "us"},
		{"model.validate_us", "us"},
		{"sched.rta_us", "us"},
		{"fleet.campaign_s", "s"},
		{"fleet.vehicle_p50_ms", "ms"},
		{"fleet.vehicle_p90_ms", "ms"},
		{"model.variant_us", "us"},
		{"platform.build_us", "us"},
		{"par.speedup", "x"},
		{"fuzz.generate_us", "us"},
		{"workload.generate_ms", "ms"},
		{"fuzz.ecus_per_op", "count"},
		{"fuzz.pubs_per_op", "count"},
		{"fuzz.mesh_frac", "frac"},
		{"fuzz.campaign_frac", "frac"},
		{"fuzz.update_frac", "frac"},
		{"fuzz.reconfig_frac", "frac"},
		{"runtime.alloc_kb_per_op", "KB"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"trace.overhead_frac", "frac"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "frac"})
	}
	return defs
}()

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build/out", "directory for the Chrome trace and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// The measured phases run on one P: every op then costs the CPU time
	// of one thread plus the GC work it causes, and nothing waits for a
	// second core of a shared host. The probe restores nproc for par.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const setupReps = 9 // set-ups per untraced run; setup_s is their median
	w := mk()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	// Set-up runs once before the measured passes and, in untraced
	// runs, again between passes at even steps of the budget, so its
	// median samples the whole run. after[i] is how many passes had
	// run before set-up i; it is scaled by the speed of the pass next to it.
	var setups []float64
	var after []int
	done := 0
	setup := func() {
		t0 := cpuNow()
		w.setup(*seed)
		setups = append(setups, (cpuNow() - t0).Seconds())
		after = append(after, done)
	}
	setup()
	start := time.Now()
	between := func() {
		done++
		if len(setups) < setupReps && time.Since(start) >= time.Duration(len(setups))*budget/setupReps {
			setup()
		}
	}

	vals := map[string]float64{}
	var res result
	if *trace == 0 {
		p := measure(w, budget, nil, false, between)
		p.report(stdout, "run")
		scaled := make([]float64, len(setups))
		for i, s := range setups {
			scaled[i] = s * p.passes[max(after[i]-1, 0)].scale()
		}
		fmt.Fprintf(stdout, "unscaled CPU time: setup_s=%.6g ops_per_cpu_s=%.6g op_cpu_p50_ms=%.6g op_cpu_p90_ms=%.6g (%d set-ups, %d op samples)\n",
			median(setups), p.opsPerSecond(false), p.opQuantile(0.5, false)/1e6, p.opQuantile(0.9, false)/1e6, len(setups), p.ops)
		vals["setup_s"] = median(scaled)
		vals["ops_per_ref_s"] = p.opsPerSecond(true)
		vals["op_ref_p50_ms"] = p.opQuantile(0.5, true) / 1e6
		vals["op_ref_p90_ms"] = p.opQuantile(0.9, true) / 1e6
		vals["mem_mb"] = median(p.mem)
		res = result{Correct: p.failed == 0, Attempted: p.ops, Failed: p.failed}
		printMetrics(stdout, endToEnd, vals)
	} else {
		var err error
		res, err = tracedRun(w, *name, *seed, budget, *out, stdout, vals)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		printMetrics(stdout, perLayer, vals)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// phase is one measured stretch of a run: whole passes over the
// workload's fixed inputs.
type phase struct {
	ops, failed        int
	busy, wall         time.Duration // CPU and wall time of the op sections
	passes             []pass
	mem                []float64 // Go runtime memory at each batch end, MB
	digest             string
	failures           []string
	allocs, allocBytes uint64
}

// pass is one run over every input of a workload.
type pass struct {
	ops int
	cpu float64   // CPU seconds of the op sections
	lat []float64 // CPU nanoseconds of each op
	ref []float64 // CPU seconds of each reference kernel run in the pass
}

// scale converts the pass's CPU times into CPU times on the reference
// box at its nominal speed (ref.go).
func (s pass) scale() float64 { return refNominal / median(s.ref) }

// measure runs whole passes over the workload's inputs until budget has
// passed, one pass always, and calls between (if not nil) after each.
// It runs the reference kernel whenever refEvery of op CPU time has
// passed, and at least once a pass.
func measure(w runner, budget time.Duration, tr *tracer, count bool, between func()) phase {
	runtime.GC()
	m := &meter{count: count}
	per := w.passBatches()
	var p phase
	var cur pass
	var canon []string
	lastRef := m.busy
	start := time.Now()
	for b := 0; b%per != 0 || b == 0 || time.Since(start) < budget; b++ {
		k := b % per
		busy0 := m.busy
		r := w.batch(b, tr, m)
		cur.ops += r.ops
		cur.cpu += (m.busy - busy0).Seconds()
		cur.lat = append(cur.lat, r.latencies...)
		if b < per {
			canon = append(canon, r.canon...)
		}
		p.ops += r.ops
		p.failed += r.failed
		p.failures = append(p.failures, r.failures...)
		p.mem = append(p.mem, goMemMB())
		if (m.busy-lastRef).Seconds() >= refEvery || (k == per-1 && len(cur.ref) == 0) {
			cur.ref = append(cur.ref, refTime())
			lastRef = m.busy
		}
		if k == per-1 {
			p.passes = append(p.passes, cur)
			cur = pass{}
			if b == per-1 {
				p.digest = digest(canon)
			}
			if between != nil {
				between()
			}
		}
	}
	p.busy, p.wall, p.allocs, p.allocBytes = m.busy, m.wall, m.allocs, m.bytes
	return p
}

// opsPerSecond is the median over passes of ops per CPU second, scaled
// to the reference box when scaled is true.
func (p phase) opsPerSecond(scaled bool) float64 {
	rates := make([]float64, len(p.passes))
	for i, s := range p.passes {
		t := s.cpu
		if scaled {
			t *= s.scale()
		}
		rates[i] = float64(s.ops) / t
	}
	return median(rates)
}

// opQuantile is the q-quantile of every op's CPU time in nanoseconds,
// scaled to the reference box when scaled is true.
func (p phase) opQuantile(q float64, scaled bool) float64 {
	var all []float64
	for _, s := range p.passes {
		f := 1.0
		if scaled {
			f = s.scale()
		}
		for _, l := range s.lat {
			all = append(all, l*f)
		}
	}
	return quantile(all, q)
}

func (p phase) report(w io.Writer, tag string) {
	var refs []float64
	for _, s := range p.passes {
		refs = append(refs, s.ref...)
	}
	fmt.Fprintf(w, "%s: digest=%s ops=%d failed=%d passes=%d busy=%.3fs cpu, %.3fs wall ref_runs=%d ref_median=%.3fms peak_rss=%.1fMB\n",
		tag, p.digest, p.ops, p.failed, len(p.passes), p.busy.Seconds(), p.wall.Seconds(), len(refs), median(refs)*1e3, maxRSSMB())
	for i, f := range p.failures {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(p.failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// tracedRun measures the workload untraced and then traced (half the
// budget each), runs the layer probe, folds the CPU profile and writes
// the Chrome trace. The two halves must produce the same digest.
func tracedRun(w runner, name string, seed uint64, budget time.Duration, outDir string,
	stdout io.Writer, vals map[string]float64) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))

	plain := measure(w, budget/2, nil, false, nil)
	plain.report(stdout, "untraced")

	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	gc0 := gcCPU()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	traced := measure(w, budget/2, tr, true, nil)
	pprof.StopCPUProfile()
	gc1 := gcCPU()
	if err := prof.Close(); err != nil {
		return result{}, err
	}
	traced.report(stdout, "traced")

	one := runtime.GOMAXPROCS(runtime.NumCPU())
	problems := probe(seed, runtime.NumCPU(), tr, vals)
	runtime.GOMAXPROCS(one)
	shares, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	for b, s := range shares {
		vals["cpu."+b] = s
	}
	vals["runtime.alloc_kb_per_op"] = float64(traced.allocBytes) / 1024 / float64(traced.ops)
	vals["runtime.allocs_per_op"] = float64(traced.allocs) / float64(traced.ops)
	vals["runtime.gc_cpu_frac"] = (gc1[0] - gc0[0]) / (gc1[1] - gc0[1])
	vals["trace.overhead_frac"] = traced.opQuantile(0.5, false)/plain.opQuantile(0.5, false) - 1

	if err := writeChromeTrace(base+".trace.json", tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "chrome trace: %s.trace.json (%d spans); cpu profile: %s.cpu.pprof\n",
		base, len(tr.spans), base)
	printSelfTimes(stdout, tr.spans)

	if plain.digest != traced.digest {
		problems = append(problems, fmt.Sprintf("digest untraced %s != traced %s", plain.digest, traced.digest))
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "  FAILED %s\n", p)
	}
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: plain.ops + traced.ops,
		Failed:    failed,
	}, nil
}

// goMemMB is the memory the Go runtime holds and has not returned to
// the OS: what it maps read-write minus released heap pages.
func goMemMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// gcCPU reads the runtime's cumulative GC and total CPU-seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// cpuNow is the CPU time the process has used, all threads, user and
// system. Time the host gives to other guests or processes is not in it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// printSelfTimes summarizes where the traced wall time went, by span name.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "span self time:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %10.3f ms\n", n, float64(self[n])/1e6)
	}
}
