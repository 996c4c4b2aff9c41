package dse

import (
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/sim"
)

// Multi-objective exploration: instead of collapsing ECU cost, peak
// utilization and cross-ECU traffic into one scalar, return the Pareto
// front over (ECUCost, MaxUtil, CrossMbps). Reference [14] (Reimann's
// dissertation, which the paper builds on) frames automotive DSE exactly
// as multi-objective optimization; the front gives the E/E architect the
// trade-off curve rather than a single point.

// ParetoPoint is one non-dominated placement.
type ParetoPoint struct {
	Placement map[string]string
	Cost      Cost
}

// dominates reports whether a is at least as good as b in every
// objective and strictly better in one.
func dominates(a, b Cost) bool {
	if a.ECUCost > b.ECUCost || a.MaxUtil > b.MaxUtil || a.CrossMbps > b.CrossMbps {
		return false
	}
	return a.ECUCost < b.ECUCost || a.MaxUtil < b.MaxUtil || a.CrossMbps < b.CrossMbps
}

// admits reports whether a point costing c joins the front: no member
// dominates or equals it.
func admits(front []ParetoPoint, c Cost) bool {
	for _, q := range front {
		if dominates(q.Cost, c) || q.Cost == c {
			return false
		}
	}
	return true
}

// insertNonDominated maintains the front under insertion.
func insertNonDominated(front []ParetoPoint, p ParetoPoint) []ParetoPoint {
	if !admits(front, p.Cost) {
		return front // dominated or duplicate
	}
	kept := front[:0]
	for _, q := range front {
		if !dominates(p.Cost, q.Cost) {
			kept = append(kept, q)
		}
	}
	return append(kept, p)
}

// ParetoFront explores candidate placements and returns the non-dominated
// set, sorted by ascending ECU cost (ties by utilization). For small
// spaces it enumerates exhaustively; beyond budget evaluations it falls
// back to seeded random sampling plus the greedy solution.
func ParetoFront(sys *model.System, budget int64, seed uint64) []ParetoPoint {
	if budget <= 0 {
		budget = 200_000
	}
	return newIndex(sys, DefaultWeights()).paretoFront(budget, seed)
}

func (ix *index) paretoFront(budget int64, seed uint64) []ParetoPoint {
	var front []ParetoPoint
	evaluated := int64(0)
	order := ix.byName()
	pl := ix.Unplaced()

	space := int64(1)
	exhaustiveOK := true
	for _, a := range order {
		n := int64(len(ix.Candidates(ix.First(a))))
		if space > budget/n+1 {
			exhaustiveOK = false
			break
		}
		space *= n
	}

	// consider builds a point's placement map only when the point joins
	// the front.
	consider := func() {
		evaluated++
		c, ok := ix.evaluate(pl)
		if !ok || !admits(front, c) {
			return
		}
		front = insertNonDominated(front, ParetoPoint{Placement: ix.PlacementMap(pl), Cost: c})
	}

	if exhaustiveOK && space <= budget {
		var recurse func(i int)
		recurse = func(i int) {
			if i == len(order) {
				consider()
				return
			}
			a := order[i]
			for _, k := range ix.Candidates(ix.First(a)) {
				ix.Place(pl, a, k)
				recurse(i + 1)
			}
		}
		recurse(0)
	} else {
		// Seed with greedy, then random sampling.
		if g, gpl := ix.greedy(); g.Feasible {
			copy(pl, gpl)
			consider()
		}
		rng := sim.NewRNG(seed)
		for evaluated < budget {
			for _, a := range order {
				cs := ix.Candidates(ix.First(a))
				ix.Place(pl, a, cs[rng.Intn(len(cs))])
			}
			consider()
		}
	}

	sort.Slice(front, func(i, j int) bool {
		if front[i].Cost.ECUCost != front[j].Cost.ECUCost {
			return front[i].Cost.ECUCost < front[j].Cost.ECUCost
		}
		if front[i].Cost.MaxUtil != front[j].Cost.MaxUtil {
			return front[i].Cost.MaxUtil < front[j].Cost.MaxUtil
		}
		return front[i].Cost.CrossMbps < front[j].Cost.CrossMbps
	})
	return front
}
