package dse

import (
	"encoding/binary"
	"math"
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// index is one search call's evaluator: the model's compiled placement
// index plus the objective weights, each binding's cross-ECU load, and a
// memo of per-ECU schedulability. evaluate(pl) returns exactly what
// Evaluate returns for the system with placement pl, without allocating
// once the memo holds pl's task sets.
type index struct {
	*model.PlacementIndex
	w    Weights
	mbps []float64 // per binding: the interface's nominal load in Mbps
	// sched memoizes the RTA-then-EDF verdict per (ECU, deterministic app
	// set), keyed by the ECU ordinal followed by the set's words. The
	// verdict depends on nothing else, so a memo hit is exact.
	sched map[string]bool
	key   []byte
	// visit, when set, sees every evaluation; tests use it to compare
	// each visited placement against Evaluate.
	visit func(pl []int, c Cost, ok bool)
}

func newIndex(sys *model.System, w Weights) *index {
	ix := &index{PlacementIndex: model.NewPlacementIndex(sys), w: w, sched: map[string]bool{}}
	for _, b := range ix.Bindings() {
		mbps := 0.0
		if b.Iface != nil {
			mbps = b.Iface.NominalBitsPerSecond() / 1e6
		}
		ix.mbps = append(ix.mbps, mbps)
	}
	return ix
}

var infeasible = Cost{Total: math.Inf(1)}

func (ix *index) evaluate(pl []int) (Cost, bool) {
	c, ok := ix.cost(pl)
	if ix.visit != nil {
		ix.visit(pl, c, ok)
	}
	return c, ok
}

// cost mirrors Evaluate: utilization is summed per ECU in System.Apps
// order and cross-ECU load in System.Bindings order, so every float is
// the one Evaluate computes.
func (ix *index) cost(pl []int) (Cost, bool) {
	if !ix.Check(pl) {
		return infeasible, false
	}
	var c Cost
	for e, l := range ix.Loads() {
		if l.Apps == 0 {
			continue
		}
		c.UsedECUs++
		c.ECUCost += ix.System().ECUs[e].Cost
		if l.Util > c.MaxUtil {
			c.MaxUtil = l.Util
		}
		if !ix.schedulable(e, l.Deterministic) {
			return infeasible, false
		}
	}
	for k, b := range ix.Bindings() {
		if b.Iface == nil || b.Client < 0 || b.Owner < 0 {
			continue
		}
		if o, cl := pl[b.Owner], pl[b.Client]; o >= 0 && cl >= 0 && o != cl {
			c.CrossMbps += ix.mbps[k]
		}
	}
	c.Total = ix.w.ECUCost*float64(c.ECUCost) + ix.w.MaxUtil*c.MaxUtil + ix.w.CrossComm*c.CrossMbps
	return c, true
}

// schedulable reports whether the deterministic apps in set, hosted on
// ECU e, pass response-time analysis or, failing that, exact EDF table
// synthesis.
func (ix *index) schedulable(e int, set []uint64) bool {
	empty := true
	for _, w := range set {
		empty = empty && w == 0
	}
	if empty {
		return true
	}
	ix.key = binary.LittleEndian.AppendUint32(ix.key[:0], uint32(e))
	for _, w := range set {
		ix.key = binary.LittleEndian.AppendUint64(ix.key, w)
	}
	if ok, hit := ix.sched[string(ix.key)]; hit {
		return ok
	}
	ecu := ix.System().ECUs[e]
	var tasks []sched.Task
	for i, a := range ix.System().Apps {
		if set[i>>6]&(1<<(i&63)) != 0 {
			tasks = append(tasks, sched.Task{
				Name: a.Name, Period: a.Period,
				WCET: ecu.ScaledWCET(a.WCET), Deadline: a.Deadline, Jitter: a.Jitter,
			})
		}
	}
	ok := true
	if _, rtaOK, err := sched.ResponseTimeAnalysis(tasks); err != nil || !rtaOK {
		_, err := sched.Synthesize(tasks, sim.Millisecond)
		ok = err == nil
	}
	ix.sched[string(ix.key)] = ok
	return ok
}

// appOrder returns the app ordinals in System.Apps order.
func (ix *index) appOrder() []int {
	order := make([]int, len(ix.System().Apps))
	for i := range order {
		order[i] = i
	}
	return order
}

// byName returns the app ordinals ordered as sort.Slice orders the apps
// by name: the same comparisons on the same input give the same
// permutation, ties between equal names included.
func (ix *index) byName() []int {
	apps, order := ix.System().Apps, ix.appOrder()
	sort.Slice(order, func(i, j int) bool { return apps[order[i]].Name < apps[order[j]].Name })
	return order
}
