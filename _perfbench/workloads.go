package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynaplat/internal/dse"
	"dynaplat/internal/fleet"
	"dynaplat/internal/fuzz"
	"dynaplat/internal/model"
	"dynaplat/internal/sim"
	"dynaplat/internal/workload"
)

// A runner is a workload: fixed seeded inputs plus the op that consumes
// them. setup generates the inputs and runs untimed warm-up ops; batch b
// runs the ops of batch b mod passBatches() over its share of the
// inputs, so a pass of passBatches() batches covers every input once and
// each pass repeats the first. The first pass's canonical outputs are
// the run's digest.
type runner interface {
	setup(seed uint64)
	batch(b int, tr *tracer, m *meter) batchResult
	passBatches() int
}

// batchResult reports one batch. latencies are per-op samples in
// nanoseconds; canon holds the batch's canonical output lines, failures
// describes the ops whose output check failed.
type batchResult struct {
	ops, failed int
	latencies   []float64
	canon       []string
	failures    []string
}

var workloads = map[string]func() runner{
	"dse-explore": func() runner { return &dseExplore{} },
	"fleet-ota":   func() runner { return &fleetOTA{workers: runtime.NumCPU()} },
	"fuzz-oracle": func() runner { return &fuzzOracle{} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// meter times the op sections of a batch in process CPU time — the base
// of ops_per_ref_s — and in wall time, and, when counting, what the
// runtime allocates inside them.
type meter struct {
	busy, wall     time.Duration
	count          bool
	allocs, bytes  uint64
	t0             time.Duration
	w0             time.Time
	mallocs0, tot0 uint64
}

func (m *meter) start() {
	if m.count {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.mallocs0, m.tot0 = ms.Mallocs, ms.TotalAlloc
	}
	m.w0 = time.Now()
	m.t0 = cpuNow()
}

func (m *meter) stop() time.Duration {
	d := cpuNow() - m.t0
	m.wall += time.Since(m.w0)
	m.busy += d
	if m.count {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.allocs += ms.Mallocs - m.mallocs0
		m.bytes += ms.TotalAlloc - m.tot0
	}
	return d
}

// ---- dse-explore ----------------------------------------------------

// dseClasses are the system sizes of the dse-explore pool, cheapest
// first: compute ECUs (plus the head unit) × control apps, at about E11
// size. The pool holds each class twice, so every run explores the same
// mix of sizes, and with five equal classes the op_ref_p50_ms and
// op_ref_p90_ms ranks fall inside one class rather than on the gap
// between two.
var dseClasses = []struct{ ecus, ctl int }{{3, 4}, {4, 4}, {3, 5}, {3, 6}, {4, 6}}

const dsePoolSize = 2 * 5

// dsePool draws the dse-explore input systems from the seed.
func dsePool(seed uint64) []*model.System {
	pool := make([]*model.System, dsePoolSize)
	for j := range pool {
		c := dseClasses[j%len(dseClasses)]
		pool[j] = workload.Fleet(sim.NewRNG(mix(seed, "dse", j)), c.ecus, c.ctl, 0, 1, 0.6)
	}
	return pool
}

// dseOutcome is one exploration: the three searches and the front.
type dseOutcome struct {
	ex, greedy, anneal dse.Result
	exErr              error
	front              []dse.ParetoPoint
}

// evals is the exact evaluation count of the op.
func (o dseOutcome) evals() int64 { return o.ex.Evaluated + o.greedy.Evaluated + o.anneal.Evaluated }

// explore runs one dse-explore op on sys, one span per search.
func explore(sys *model.System, tr *tracer) dseOutcome {
	w := dse.DefaultWeights()
	var o dseOutcome
	tr.begin("dse.exhaustive")
	o.ex, o.exErr = dse.Exhaustive(sys, w, 0)
	tr.end()
	tr.begin("dse.greedy")
	o.greedy = dse.Greedy(sys, w)
	tr.end()
	tr.begin("dse.anneal")
	o.anneal = dse.Anneal(sys, w, dse.DefaultAnnealConfig())
	tr.end()
	tr.begin("dse.pareto")
	o.front = dse.ParetoFront(sys, 0, 1)
	tr.end()
	return o
}

// check verifies an exploration: every returned placement re-evaluates
// to its reported cost, annealing stays within 10% of the exhaustive
// optimum, and no Pareto point dominates another. It returns the
// problems found.
func (o dseOutcome) check(sys *model.System) []string {
	var bad []string
	w := dse.DefaultWeights()
	reproduces := func(what string, p map[string]string, want dse.Cost) {
		placed := sys.Clone()
		placed.Placement = map[string]string{}
		for k, v := range p {
			placed.Placement[k] = v
		}
		if got, ok := dse.Evaluate(placed, w); !ok || got != want {
			bad = append(bad, fmt.Sprintf("%s: Evaluate gives %+v (ok=%v), search reported %+v", what, got, ok, want))
		}
	}
	if o.exErr != nil || !o.ex.Feasible {
		return append(bad, fmt.Sprintf("exhaustive: no optimum (err=%v)", o.exErr))
	}
	reproduces("exhaustive", o.ex.Placement, o.ex.Cost)
	if o.greedy.Feasible {
		reproduces("greedy", o.greedy.Placement, o.greedy.Cost)
	}
	if !o.anneal.Feasible {
		bad = append(bad, "anneal: infeasible")
	} else {
		reproduces("anneal", o.anneal.Placement, o.anneal.Cost)
		if o.anneal.Cost.Total > o.ex.Cost.Total*1.10+1e-9 {
			bad = append(bad, fmt.Sprintf("anneal: cost %.4f more than 10%% above optimum %.4f",
				o.anneal.Cost.Total, o.ex.Cost.Total))
		}
	}
	if len(o.front) == 0 {
		bad = append(bad, "pareto: empty front")
	}
	for i, p := range o.front {
		reproduces(fmt.Sprintf("pareto[%d]", i), p.Placement, p.Cost)
		for j, q := range o.front {
			if i != j && dominates(p.Cost, q.Cost) {
				bad = append(bad, fmt.Sprintf("pareto: point %d dominates point %d", i, j))
			}
		}
	}
	return bad
}

// dominates mirrors the dse package's Pareto order over (ECUCost,
// MaxUtil, CrossMbps).
func dominates(a, b dse.Cost) bool {
	if a.ECUCost > b.ECUCost || a.MaxUtil > b.MaxUtil || a.CrossMbps > b.CrossMbps {
		return false
	}
	return a.ECUCost < b.ECUCost || a.MaxUtil < b.MaxUtil || a.CrossMbps < b.CrossMbps
}

// canon renders the exploration canonically: costs, evaluation counts
// and placements of every result.
func (o dseOutcome) canon(j int, sys *model.System) string {
	var b strings.Builder
	res := func(tag string, r dse.Result) {
		fmt.Fprintf(&b, " %s=%v/%.6f/%d/%s", tag, r.Feasible, r.Cost.Total, r.Evaluated, placementString(r.Placement))
	}
	fmt.Fprintf(&b, "sys%d ecus=%d apps=%d", j, len(sys.ECUs), len(sys.Apps))
	res("ex", o.ex)
	res("greedy", o.greedy)
	res("anneal", o.anneal)
	fmt.Fprintf(&b, " pareto=%d", len(o.front))
	for _, p := range o.front {
		fmt.Fprintf(&b, " [%d %.6f %.6f %s]", p.Cost.ECUCost, p.Cost.MaxUtil, p.Cost.CrossMbps, placementString(p.Placement))
	}
	return b.String()
}

func placementString(p map[string]string) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + "@" + p[k]
	}
	return strings.Join(keys, ",")
}

// dseExplore: one op is Exhaustive, Greedy, Anneal and ParetoFront on
// one pool system; batch b is the op on system b mod the pool size.
type dseExplore struct{ pool []*model.System }

func (d *dseExplore) passBatches() int { return len(d.pool) }

func (d *dseExplore) setup(seed uint64) {
	d.pool = dsePool(seed)
	explore(d.pool[0], nil)
}

func (d *dseExplore) batch(b int, tr *tracer, m *meter) batchResult {
	var r batchResult
	j := b % len(d.pool)
	sys := d.pool[j]
	tr.begin("op")
	m.start()
	o := explore(sys, tr)
	r.latencies = append(r.latencies, float64(m.stop()))
	tr.end()
	r.ops++
	if bad := o.check(sys); len(bad) > 0 {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("sys%d: %s", j, strings.Join(bad, "; ")))
		r.canon = append(r.canon, fmt.Sprintf("sys%d failed", j))
		return r
	}
	r.canon = append(r.canon, o.canon(j, sys))
	return r
}

// ---- fleet-ota ------------------------------------------------------

const (
	fleetVehicles  = 64
	fleetCampaigns = 16 // distinct campaigns in a pass
)

// fleetUpdate is the campaign payload: verified update, 10% bad images.
var fleetUpdate = fleet.UpdateSpec{Verify: true, FaultProb: 0.1}

// fleetCampaign is the b-th campaign of the seed: no abort policy, so
// every vehicle is simulated.
func fleetCampaign(seed uint64, b, vehicles, workers int) fleet.CampaignConfig {
	return fleet.CampaignConfig{
		FleetSeed: mix(seed, "fleet", b), Vehicles: vehicles,
		Update: fleetUpdate, Workers: workers,
	}
}

// checkVehicle verifies one campaign vehicle: verification rolls back
// exactly the bad images.
func checkVehicle(v fleet.VehicleReport) string {
	want := fleet.OutcomeShipped
	if v.BadImage {
		want = fleet.OutcomeRolledBack
	}
	if v.Outcome != want {
		return fmt.Sprintf("%s: bad=%v outcome=%s, want %s", v.ID, v.BadImage, v.Outcome, want)
	}
	return ""
}

// fleetOTA: one op is one vehicle of a fleet.RunCampaign; batch b is
// campaign b mod fleetCampaigns, fleetVehicles vehicles across the
// worker pool. The
// output check replays every vehicle serially with fleet.RunVehicle;
// those serial replays are the op latency samples.
type fleetOTA struct {
	seed    uint64
	workers int
}

// warmOps is how many ops a fleet-ota or fuzz-oracle set-up warms up
// with, so set-up time depends little on which inputs the seed draws.
const warmOps = 32

func (f *fleetOTA) setup(seed uint64) {
	f.seed = seed
	for i := 0; i < warmOps; i++ {
		fleet.RunVehicle(fleetCampaign(seed, 0, fleetVehicles, f.workers).FleetSeed, i, fleetUpdate)
	}
}

func (f *fleetOTA) passBatches() int { return fleetCampaigns }

func (f *fleetOTA) batch(b int, tr *tracer, m *meter) batchResult {
	cfg := fleetCampaign(f.seed, b%fleetCampaigns, fleetVehicles, f.workers)
	tr.begin("fleet.campaign")
	m.start()
	rep, err := fleet.RunCampaign(cfg)
	m.stop()
	tr.end()
	r := batchResult{ops: cfg.Vehicles}
	if err != nil {
		r.failed = cfg.Vehicles
		r.failures = []string{"campaign: " + err.Error()}
		return r
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	r.canon = strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, v := range rep.Vehicles {
		tr.begin("fleet.vehicle")
		t0 := cpuNow()
		replay := fleet.RunVehicle(cfg.FleetSeed, i, cfg.Update)
		r.latencies = append(r.latencies, float64(cpuNow()-t0))
		tr.end()
		problem := checkVehicle(v)
		if problem == "" && replay.Render() != v.Render() {
			problem = fmt.Sprintf("%s: serial replay renders %q, campaign %q", v.ID, replay.Render(), v.Render())
		}
		if problem != "" {
			r.failed++
			r.failures = append(r.failures, problem)
		}
	}
	return r
}

// ---- fuzz-oracle ----------------------------------------------------

// fuzzPool is how many consecutive scenario seeds a pass runs.
const fuzzPool = 512

// fuzzBase is the first scenario seed of the run.
func fuzzBase(seed uint64) uint64 { return mix(seed, "fuzz", 0) }

// fuzzOracle: one op is fuzz.Check(fuzz.Generate(s)) for one seed s of
// a run of fuzzPool consecutive seeds starting at fuzzBase; batch b is
// the op on seed fuzzBase + b mod fuzzPool.
type fuzzOracle struct{ base uint64 }

func (f *fuzzOracle) setup(seed uint64) {
	f.base = fuzzBase(seed)
	for i := 0; i < warmOps; i++ {
		fuzz.Check(fuzz.Generate(f.base + uint64(i)))
	}
}

func (f *fuzzOracle) passBatches() int { return fuzzPool }

func (f *fuzzOracle) batch(b int, tr *tracer, m *meter) batchResult {
	s := f.base + uint64(b%fuzzPool)
	tr.begin("op")
	m.start()
	tr.begin("fuzz.generate")
	sp := fuzz.Generate(s)
	tr.end()
	tr.begin("fuzz.check")
	rep := fuzz.Check(sp)
	tr.end()
	r := batchResult{ops: 1, latencies: []float64{float64(m.stop())}}
	tr.end()
	line := fmt.Sprintf("seed=%d fp=%016x violations=%d", s, fnv64(rep.Fingerprint), len(rep.Violations))
	if rep.Failed() {
		r.failed++
		for _, v := range rep.Violations {
			line += fmt.Sprintf(" [%s: %s]", v.Property, v.Detail)
		}
		r.failures = append(r.failures, line)
	}
	r.canon = []string{line}
	return r
}
