package main

import (
	"bytes"
	"fmt"
	"time"

	"dynaplat"
	"dynaplat/internal/dse"
	"dynaplat/internal/fleet"
	"dynaplat/internal/fuzz"
	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// The layer probe runs in every traced run, whatever the workload. It
// times each layer's public functions on a fixed-size prefix of every
// workload's seeded inputs, so each per-layer number has one definition
// on all workloads and every count it reports is exact for the seed.
const (
	probePlacements = 64  // random placements per dse pool system
	probeVehicles   = 128 // prefix of the first fleet-ota campaign
	probeFuzzSeeds  = 256 // prefix of the fuzz-oracle seed run
	probeGenReps    = 5   // repetitions of the dse pool generation
	probeCampaigns  = 3   // repetitions of the probe campaign per worker count
)

// probe records per-layer metrics into out and returns the problems
// found by its own output checks.
func probe(seed uint64, workers int, tr *tracer, out map[string]float64) []string {
	var bad []string
	tr.begin("probe")
	defer tr.end()

	// workload: input generation for dse-explore.
	var gen []float64
	var pool []*model.System
	for i := 0; i < probeGenReps; i++ {
		t0 := time.Now()
		pool = dsePool(seed)
		gen = append(gen, float64(time.Since(t0)))
	}
	out["workload.generate_ms"] = median(gen) / 1e6

	// dse: the four searches on the whole pool.
	mark := len(tr.spans)
	var evals int64
	for j, sys := range pool {
		o := explore(sys, tr)
		evals += o.evals()
		for _, p := range o.check(sys) {
			bad = append(bad, fmt.Sprintf("probe sys%d: %s", j, p))
		}
	}
	for _, n := range []string{"exhaustive", "greedy", "anneal", "pareto"} {
		out["dse."+n+"_ms"] = median(tr.durationsSince(mark, "dse."+n)) / 1e6
	}
	out["dse.evals_per_op"] = float64(evals) / float64(len(pool))

	// dse / model / sched: the evaluation primitives on random placements.
	tr.begin("probe.placements")
	var eval, valid, rta []float64
	w := dse.DefaultWeights()
	for j, sys := range pool {
		rng := sim.NewRNG(mix(seed, "placements", j))
		for k := 0; k < probePlacements; k++ {
			placed := sys.Clone()
			for _, a := range placed.Apps {
				cs := a.Candidates
				if len(cs) == 0 {
					for _, e := range placed.ECUs {
						cs = append(cs, e.Name)
					}
				}
				placed.Placement[a.Name] = cs[rng.Intn(len(cs))]
			}
			// Only the time of these calls is used here; their results
			// are checked by the dse-explore ops.
			t0 := time.Now()
			dse.Evaluate(placed, w)
			t1 := time.Now()
			model.Validate(placed)
			t2 := time.Now()
			eval = append(eval, float64(t1.Sub(t0)))
			valid = append(valid, float64(t2.Sub(t1)))
			for _, e := range placed.ECUs {
				tasks := daTasks(placed, e)
				if len(tasks) == 0 {
					continue
				}
				t0 := time.Now()
				_, _, _ = sched.ResponseTimeAnalysis(tasks) // timed only
				rta = append(rta, float64(time.Since(t0)))
			}
		}
	}
	tr.end()
	out["dse.evaluate_us"] = median(eval) / 1e3
	out["model.validate_us"] = median(valid) / 1e3
	out["sched.rta_us"] = median(rta) / 1e3

	// model / platform: variant generation and dynaplat.FromModel on the
	// first campaign's vehicles.
	cfg := fleetCampaign(seed, 0, probeVehicles, 1)
	tr.begin("probe.variants")
	var variant, build []float64
	for i := 0; i < probeVehicles; i++ {
		// The same stream fleet.RunVehicle draws vehicle i from.
		rng := sim.NewRNG(cfg.FleetSeed ^ uint64(i))
		t0 := time.Now()
		sys := model.GenerateVariant(rng, fleet.VehicleID(i), model.VariantConfig{})
		t1 := time.Now()
		_, err := dynaplat.FromModel(sys, dynaplat.Options{Seed: rng.Uint64()})
		t2 := time.Now()
		variant = append(variant, float64(t1.Sub(t0)))
		build = append(build, float64(t2.Sub(t1)))
		if err != nil {
			bad = append(bad, fmt.Sprintf("probe %s: FromModel: %v", sys.Name, err))
		}
	}
	tr.end()
	out["model.variant_us"] = median(variant) / 1e3
	out["platform.build_us"] = median(build) / 1e3

	// fleet / par: the same campaign serially and across the pool,
	// alternating, then every vehicle replayed alone. Every campaign
	// must render identically.
	var times [2][]float64
	var first string
	var last *fleet.FleetReport // every campaign renders alike; keep one
	for r := 0; r < probeCampaigns; r++ {
		for i, nw := range []int{1, workers} {
			cfg.Workers = nw
			tr.begin("fleet.campaign")
			t0 := time.Now()
			rep, err := fleet.RunCampaign(cfg)
			times[i] = append(times[i], time.Since(t0).Seconds())
			tr.end()
			if err != nil {
				bad = append(bad, fmt.Sprintf("probe campaign (workers=%d): %v", nw, err))
				continue
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if first == "" {
				first = buf.String()
			} else if buf.String() != first {
				bad = append(bad, fmt.Sprintf("probe campaign renders differently at workers=%d", nw))
			}
			last = rep
		}
	}
	out["fleet.campaign_s"] = median(times[1])
	out["par.speedup"] = median(times[0]) / median(times[1])
	if last != nil {
		mark := len(tr.spans)
		for _, v := range last.Vehicles {
			tr.begin("fleet.vehicle")
			replay := fleet.RunVehicle(cfg.FleetSeed, v.Index, cfg.Update)
			tr.end()
			if p := checkVehicle(v); p != "" {
				bad = append(bad, "probe "+p)
			}
			if replay.Render() != v.Render() {
				bad = append(bad, fmt.Sprintf("probe %s: serial replay differs from campaign", v.ID))
			}
		}
		lat := tr.durationsSince(mark, "fleet.vehicle")
		out["fleet.vehicle_p50_ms"] = quantile(lat, 0.5) / 1e6
		out["fleet.vehicle_p90_ms"] = quantile(lat, 0.9) / 1e6
	}

	// fuzz: scenario generation and the shape of what it generated.
	tr.begin("probe.fuzz")
	var fgen []float64
	var ecus, pubs, mesh, campaign, update, reconfig float64
	base := fuzzBase(seed)
	for i := 0; i < probeFuzzSeeds; i++ {
		t0 := time.Now()
		sp := fuzz.Generate(base + uint64(i))
		fgen = append(fgen, float64(time.Since(t0)))
		ecus += float64(len(sp.ECUs))
		pubs += float64(len(sp.Pubs))
		mesh += b2f(sp.Mesh != nil)
		campaign += b2f(sp.Campaign != nil)
		update += b2f(sp.Update != nil)
		reconfig += b2f(sp.Reconfig != nil)
	}
	tr.end()
	n := float64(probeFuzzSeeds)
	out["fuzz.generate_us"] = median(fgen) / 1e3
	out["fuzz.ecus_per_op"] = ecus / n
	out["fuzz.pubs_per_op"] = pubs / n
	out["fuzz.mesh_frac"] = mesh / n
	out["fuzz.campaign_frac"] = campaign / n
	out["fuzz.update_frac"] = update / n
	out["fuzz.reconfig_frac"] = reconfig / n
	return bad
}

// daTasks is the deterministic task set dse.Evaluate hands to the
// response-time analysis for one ECU.
func daTasks(sys *model.System, e *model.ECU) []sched.Task {
	var tasks []sched.Task
	for _, a := range sys.AppsOn(e.Name) {
		if a.Kind != model.Deterministic {
			continue
		}
		tasks = append(tasks, sched.Task{
			Name: a.Name, Period: a.Period,
			WCET: e.ScaledWCET(a.WCET), Deadline: a.Deadline, Jitter: a.Jitter,
		})
	}
	return tasks
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
