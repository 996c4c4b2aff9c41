// Package dse implements design-space exploration over the system model
// (Section 2.3 and references [9, 14]): mapping applications to ECUs
// under resource, safety and schedulability constraints, optimizing cost,
// load and communication locality. It provides exhaustive search (exact
// but exponential), a best-fit-decreasing greedy heuristic, and simulated
// annealing, plus whole-design-space variant verification ("it needs to
// be ensured that every possible mapping is functional").
package dse

import (
	"fmt"
	"math"
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// Weights blends the objective components into a scalar cost.
type Weights struct {
	// ECUCost weights the summed Cost of ECUs that host at least one app
	// (consolidation pressure: empty ECUs can be removed from the car).
	ECUCost float64
	// MaxUtil weights the peak deterministic CPU utilization (headroom).
	MaxUtil float64
	// CrossComm weights cross-ECU communication load in Mbps (locality).
	CrossComm float64
}

// DefaultWeights returns a balanced objective.
func DefaultWeights() Weights { return Weights{ECUCost: 1, MaxUtil: 20, CrossComm: 0.5} }

// Cost is an evaluated objective, with its components kept visible.
type Cost struct {
	ECUCost   int
	UsedECUs  int
	MaxUtil   float64
	CrossMbps float64
	Total     float64
}

// Evaluate scores a fully placed system. ok is false when the placement
// is infeasible (validation errors or an unschedulable ECU).
func Evaluate(sys *model.System, w Weights) (Cost, bool) {
	if rep := model.Validate(sys); !rep.OK() {
		return Cost{Total: math.Inf(1)}, false
	}
	var c Cost
	for _, e := range sys.ECUs {
		apps := sys.AppsOn(e.Name)
		if len(apps) == 0 {
			continue
		}
		c.UsedECUs++
		c.ECUCost += e.Cost
		u := sys.ECUUtilization(e)
		if u > c.MaxUtil {
			c.MaxUtil = u
		}
		// Exact schedulability of the deterministic set on this ECU.
		var tasks []sched.Task
		for _, a := range apps {
			if a.Kind != model.Deterministic {
				continue
			}
			tasks = append(tasks, sched.Task{
				Name: a.Name, Period: a.Period,
				WCET: e.ScaledWCET(a.WCET), Deadline: a.Deadline, Jitter: a.Jitter,
			})
		}
		if len(tasks) > 0 {
			if _, ok, err := sched.ResponseTimeAnalysis(tasks); err != nil || !ok {
				// RTA is sufficient-only under DM; fall back to exact
				// EDF synthesis before declaring infeasibility.
				if _, err := sched.Synthesize(tasks, sim.Millisecond); err != nil {
					return Cost{Total: math.Inf(1)}, false
				}
			}
		}
	}
	// Cross-ECU communication load.
	for _, b := range sys.Bindings {
		ifc := sys.Interface(b.Interface)
		if ifc == nil {
			continue
		}
		pEcu, pOK := sys.Placement[ifc.Owner]
		cEcu, cOK := sys.Placement[b.Client]
		if pOK && cOK && pEcu != cEcu {
			c.CrossMbps += ifc.NominalBitsPerSecond() / 1e6
		}
	}
	c.Total = w.ECUCost*float64(c.ECUCost) + w.MaxUtil*c.MaxUtil + w.CrossComm*c.CrossMbps
	return c, true
}

// Result is one exploration outcome.
type Result struct {
	Placement map[string]string
	Cost      Cost
	Feasible  bool
	// Evaluated counts objective evaluations performed.
	Evaluated int64
}

// ErrBudget reports that exhaustive search exceeded its evaluation budget.
var ErrBudget = fmt.Errorf("dse: evaluation budget exhausted")

// Exhaustive enumerates every candidate placement of the system's apps
// and returns the optimum. budget bounds objective evaluations (0 means
// 10 million); exceeding it returns ErrBudget with the best found so far.
func Exhaustive(sys *model.System, w Weights, budget int64) (Result, error) {
	if budget <= 0 {
		budget = 10_000_000
	}
	return newIndex(sys, w).exhaustive(budget)
}

func (ix *index) exhaustive(budget int64) (Result, error) {
	order := ix.byName()
	pl, bestPl := ix.Unplaced(), ix.Unplaced()
	best := Result{Cost: infeasible}
	var overBudget bool

	var recurse func(i int) bool
	recurse = func(i int) bool {
		if i == len(order) {
			best.Evaluated++
			if best.Evaluated > budget {
				overBudget = true
				return false
			}
			if c, ok := ix.evaluate(pl); ok && c.Total < best.Cost.Total {
				best.Cost = c
				best.Feasible = true
				copy(bestPl, pl)
			}
			return true
		}
		a := order[i]
		for _, k := range ix.Candidates(ix.First(a)) {
			ix.Place(pl, a, k)
			if !recurse(i + 1) {
				return false
			}
		}
		ix.Place(pl, a, -1)
		return true
	}
	recurse(0)
	if best.Feasible {
		best.Placement = ix.PlacementMap(bestPl)
	}
	if overBudget {
		return best, ErrBudget
	}
	return best, nil
}

// Greedy places apps best-fit-decreasing: apps sorted by descending
// utilization then memory, each onto the feasible candidate ECU that
// minimizes the incremental objective.
func Greedy(sys *model.System, w Weights) Result {
	ix := newIndex(sys, w)
	res, pl := ix.greedy()
	if pl != nil {
		res.Placement = ix.PlacementMap(pl)
	}
	return res
}

// greedy runs Greedy without building the placement map. It returns the
// placement it ended on, or nil when some app had no feasible candidate.
// Partial placements are scored as they are: validation skips unplaced
// apps.
func (ix *index) greedy() (Result, []int) {
	apps, order := ix.System().Apps, ix.appOrder()
	sort.SliceStable(order, func(i, j int) bool {
		ai, aj := apps[order[i]], apps[order[j]]
		ui, uj := ai.Utilization(), aj.Utilization()
		if ui != uj {
			return ui > uj
		}
		if ai.MemoryKB != aj.MemoryKB {
			return ai.MemoryKB > aj.MemoryKB
		}
		return ai.Name < aj.Name
	})
	pl := ix.Unplaced()
	res := Result{}
	for _, a := range order {
		best := -1
		bestCost := math.Inf(1)
		for _, k := range ix.Candidates(a) {
			ix.Place(pl, a, k)
			res.Evaluated++
			if c, ok := ix.evaluate(pl); ok && c.Total < bestCost {
				bestCost = c.Total
				best = k
			}
		}
		// An ECU named "" reads as no choice, as in a placement map.
		if best < 0 || ix.Name(best) == "" {
			return Result{Feasible: false, Evaluated: res.Evaluated, Cost: infeasible}, nil
		}
		ix.Place(pl, a, best)
	}
	res.Cost, res.Feasible = ix.evaluate(pl)
	res.Evaluated++
	return res, pl
}

// AnnealConfig tunes simulated annealing (ablation A5).
type AnnealConfig struct {
	// Iterations is the total number of neighbor proposals.
	Iterations int
	// T0 is the initial temperature; Cooling the geometric factor applied
	// every CoolEvery iterations.
	T0        float64
	Cooling   float64
	CoolEvery int
	Seed      uint64
}

// DefaultAnnealConfig returns a robust schedule for ≤ 50-app problems.
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{Iterations: 5000, T0: 50, Cooling: 0.95, CoolEvery: 100, Seed: 1}
}

// Anneal runs simulated annealing from the greedy solution (or a random
// feasible one when greedy fails).
func Anneal(sys *model.System, w Weights, cfg AnnealConfig) Result {
	return newIndex(sys, w).anneal(cfg)
}

func (ix *index) anneal(cfg AnnealConfig) Result {
	rng := sim.NewRNG(cfg.Seed)
	g, pl := ix.greedy()
	if !g.Feasible {
		// Random restart.
		if pl == nil {
			pl = ix.Unplaced()
		}
		for a := range ix.System().Apps {
			cs := ix.Candidates(a)
			ix.Place(pl, a, cs[rng.Intn(len(cs))])
		}
	}
	cur, curOK := ix.evaluate(pl)
	best := Result{Cost: cur, Feasible: curOK, Evaluated: g.Evaluated + 1}
	bestPl := append([]int(nil), pl...)

	order := ix.byName()
	temp := cfg.T0
	for it := 0; len(order) > 0 && it < cfg.Iterations; it++ {
		if cfg.CoolEvery > 0 && it > 0 && it%cfg.CoolEvery == 0 {
			temp *= cfg.Cooling
		}
		a := order[rng.Intn(len(order))]
		cs := ix.Candidates(a)
		old := pl[a]
		next := cs[rng.Intn(len(cs))]
		if next == old {
			continue
		}
		ix.Place(pl, a, next)
		cand, ok := ix.evaluate(pl)
		best.Evaluated++
		accept := false
		switch {
		case ok && (!curOK || cand.Total <= cur.Total):
			accept = true
		case ok && temp > 0:
			accept = rng.Float64() < math.Exp((cur.Total-cand.Total)/temp)
		}
		if accept {
			cur, curOK = cand, ok
			if ok && (!best.Feasible || cand.Total < best.Cost.Total) {
				best.Cost = cand
				best.Feasible = true
				copy(bestPl, pl)
			}
		} else {
			ix.Place(pl, a, old)
		}
	}
	best.Placement = ix.PlacementMap(bestPl)
	return best
}

// VariantReport summarizes whole-space verification (Section 2.3: every
// possible mapping that may be chosen in the field must be functional,
// safe and secure).
type VariantReport struct {
	Total      int64
	Feasible   int64
	Infeasible int64
	Truncated  bool
}

// VerifyAllVariants validates every candidate placement, up to limit
// combinations (0 means 1 million).
func VerifyAllVariants(sys *model.System, w Weights, limit int64) VariantReport {
	if limit <= 0 {
		limit = 1_000_000
	}
	return newIndex(sys, w).verifyAll(limit)
}

func (ix *index) verifyAll(limit int64) VariantReport {
	order := ix.byName()
	pl := ix.Unplaced()
	rep := VariantReport{}
	var recurse func(i int) bool
	recurse = func(i int) bool {
		if i == len(order) {
			rep.Total++
			if rep.Total > limit {
				rep.Truncated = true
				rep.Total--
				return false
			}
			if _, ok := ix.evaluate(pl); ok {
				rep.Feasible++
			} else {
				rep.Infeasible++
			}
			return true
		}
		a := order[i]
		for _, k := range ix.Candidates(ix.First(a)) {
			ix.Place(pl, a, k)
			if !recurse(i + 1) {
				return false
			}
		}
		return true
	}
	recurse(0)
	return rep
}
