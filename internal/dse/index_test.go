package dse

import (
	"fmt"
	"testing"

	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
	"dynaplat/internal/workload"
)

// oracle compares an index's evaluations with Evaluate, the full-Validate
// reference, on the same placement rendered as a map.
type oracle struct {
	t    *testing.T
	name string
	sys  *model.System
	w    Weights
	seen map[string]bool
	// checks and feasible count the distinct placements checked and the
	// feasible ones among them.
	checks, feasible int
	// rules collects the error rules Validate reports on the visited
	// placements, when non-nil.
	rules map[string]bool
}

func newOracle(t *testing.T, name string, sys *model.System, rules map[string]bool) *oracle {
	return &oracle{t: t, name: name, sys: sys, w: DefaultWeights(), seen: map[string]bool{}, rules: rules}
}

// index returns a search index whose every evaluation is checked.
func (o *oracle) index() *index {
	ix := newIndex(o.sys, o.w)
	ix.visit = func(pl []int, c Cost, ok bool) { o.check(ix, pl, c, ok) }
	return ix
}

// check compares one evaluation with Evaluate. Each distinct placement is
// checked once.
func (o *oracle) check(ix *index, pl []int, c Cost, ok bool) {
	o.t.Helper()
	key := make([]byte, len(pl))
	for i, k := range pl {
		if k+1 > 255 {
			o.t.Fatalf("%s: name ordinal %d too large for the test key", o.name, k)
		}
		key[i] = byte(k + 1)
	}
	if o.seen[string(key)] {
		return
	}
	o.seen[string(key)] = true
	o.checks++
	if ok {
		o.feasible++
	}
	placed := *o.sys
	placed.Placement = ix.PlacementMap(pl)
	want, wantOK := Evaluate(&placed, o.w)
	if c != want || ok != wantOK {
		o.t.Fatalf("%s: placement %v: index gives %+v ok=%v, Evaluate gives %+v ok=%v",
			o.name, placed.Placement, c, ok, want, wantOK)
	}
	if o.rules != nil {
		for _, f := range model.Validate(&placed).Errors() {
			o.rules[f.Rule] = true
		}
	}
}

// searchAll runs every search on the oracle's system with every
// evaluation checked: Exhaustive, Greedy, Anneal, ParetoFront both
// exhaustively and by sampling, and VerifyAllVariants.
func (o *oracle) searchAll(budget int64) {
	if _, err := o.index().exhaustive(budget); err != nil && err != ErrBudget {
		o.t.Fatal(err)
	}
	o.index().greedy()
	o.index().anneal(DefaultAnnealConfig())
	o.index().paretoFront(budget, 1)
	o.index().paretoFront(50, 7)
	o.index().verifyAll(budget)
}

// sample checks n random placements: each app placed on a random
// candidate, or left unplaced with probability 1/8.
func (o *oracle) sample(rng *sim.RNG, n int) {
	ix := o.index()
	pl := ix.Unplaced()
	for k := 0; k < n; k++ {
		for a := range pl {
			cs := ix.Candidates(a)
			if len(cs) == 0 || rng.Intn(8) == 0 {
				ix.Place(pl, a, -1)
			} else {
				ix.Place(pl, a, cs[rng.Intn(len(cs))])
			}
		}
		ix.evaluate(pl)
	}
}

// poolSizes are the (ECUs, control apps) classes of the benchmark's
// dse-explore pool.
var poolSizes = []struct{ ecus, ctl int }{{3, 4}, {4, 4}, {3, 5}, {3, 6}, {4, 6}}

func TestIndexMatchesEvaluateSmall(t *testing.T) {
	o := newOracle(t, "small", smallSystem(), nil)
	o.searchAll(0)
	if o.checks < 27 {
		t.Errorf("only %d distinct placements checked", o.checks)
	}
}

func TestIndexMatchesEvaluateFleets(t *testing.T) {
	for _, sz := range poolSizes {
		for seed := uint64(1); seed <= 20; seed++ {
			name := fmt.Sprintf("fleet-%dx%d-seed%d", sz.ecus, sz.ctl, seed)
			sys := workload.Fleet(sim.NewRNG(seed*7919), sz.ecus, sz.ctl, 0, 1, 0.6)
			newOracle(t, name, sys, nil).searchAll(0)
		}
	}
}

// e11Big is E11's heuristic-only system: 38 apps on 7 ECUs.
func e11Big() *model.System { return workload.Fleet(sim.NewRNG(97), 6, 30, 4, 4, 2.0) }

func TestIndexMatchesEvaluateE11Big(t *testing.T) {
	o := newOracle(t, "e11-big", e11Big(), nil)
	o.index().greedy()
	o.index().anneal(DefaultAnnealConfig())
	o.index().paretoFront(300, 1)
	o.sample(sim.NewRNG(11), 300)
}

// TestIndexMatchesEvaluateCornerCases drives every search over systems
// built to stress the index's name handling and each placement rule, and
// asserts that between them every placement-dependent error rule of
// Validate fires.
func TestIndexMatchesEvaluateCornerCases(t *testing.T) {
	rules := map[string]bool{}
	for _, c := range cornerCases() {
		o := newOracle(t, c.name, c.sys, rules)
		o.searchAll(0)
		o.sample(sim.NewRNG(3), 200)
		if o.feasible == 0 && c.name != "non-app-key" {
			t.Errorf("%s: none of %d placements is feasible", c.name, o.checks)
		}
		t.Logf("%s: %d placements, %d feasible", c.name, o.checks, o.feasible)
	}
	o := newOracle(t, "e11-big", e11Big(), rules)
	o.sample(sim.NewRNG(5), 100)
	for _, r := range model.PlacementRules() {
		if !rules[r] {
			t.Errorf("placement rule %s never fired in the corpus", r)
		}
	}
}

func TestCornerCasesBehave(t *testing.T) {
	w := DefaultWeights()
	cases := map[string]*model.System{}
	for _, c := range cornerCases() {
		cases[c.name] = c.sys
	}

	// A placement key that is no app makes every placement infeasible.
	if r, _ := Exhaustive(cases["non-app-key"], w, 0); r.Feasible || r.Evaluated != 27 {
		t.Errorf("non-app key: %+v", r)
	}
	if g := Greedy(cases["non-app-key"], w); g.Feasible {
		t.Errorf("non-app key: greedy feasible")
	}

	// The EDF set fails response-time analysis but synthesizes, so it is
	// feasible on one ECU.
	edf := cases["rta-fails-edf-passes"]
	var tasks []sched.Task
	for _, a := range edf.Apps {
		tasks = append(tasks, sched.Task{Name: a.Name, Period: a.Period, WCET: a.WCET})
	}
	if _, ok, err := sched.ResponseTimeAnalysis(tasks); err != nil || ok {
		t.Fatalf("RTA should reject the EDF set: ok=%v err=%v", ok, err)
	}
	both := edf.Clone()
	both.Placement = map[string]string{"T1": "E", "T2": "E"}
	if _, ok := Evaluate(both, w); !ok {
		t.Error("EDF-schedulable set judged infeasible")
	}
	if r, _ := Exhaustive(edf, w, 0); !r.Feasible || r.Placement["T1"] != "E" || r.Placement["T2"] != "E" {
		t.Errorf("exhaustive should consolidate the EDF set on E: %+v", r)
	}
}

// randomSystem builds a small system from seed, drawing names from tiny
// pools so that duplicate ECU and app names, unknown candidates, an ECU
// named "", unmapped or unknown networks, negative memory and the odd
// non-app placement key all occur.
func randomSystem(seed uint64) *model.System {
	rng := sim.NewRNG(seed)
	ms := sim.Millisecond
	ecuNames := []string{"E0", "E1", "E2", "E0", ""}
	candNames := []string{"E0", "E1", "E2", "", "Ghost"}
	appNames := []string{"A", "B", "C", "D", "A"}
	s := model.NewSystem(fmt.Sprintf("random-%d", seed))
	for i := 0; i < 1+rng.Intn(4); i++ {
		e := &model.ECU{
			Name: ecuNames[rng.Intn(len(ecuNames))], CPUMHz: 50 * (1 + rng.Intn(8)),
			MemoryKB: 64 * (1 + rng.Intn(8)), HasMMU: rng.Intn(3) > 0, HasCryptoHW: rng.Intn(2) == 0,
			HasGPU: rng.Intn(2) == 0, Cost: 5 + rng.Intn(20),
		}
		if rng.Intn(4) == 0 {
			e.OS = model.OSPOSIX
		}
		if rng.Intn(8) == 0 {
			e.MemoryKB = -e.MemoryKB
		}
		s.ECUs = append(s.ECUs, e)
	}
	periods := []sim.Duration{2 * ms, 4 * ms, 5 * ms, 6 * ms, 10 * ms}
	for i := 0; i < 1+rng.Intn(5); i++ {
		a := &model.App{Name: appNames[rng.Intn(len(appNames))], ASIL: model.ASIL(rng.Intn(5)),
			MemoryKB: 16 * (rng.Intn(6) - 1), NeedsGPU: rng.Intn(5) == 0, NeedsCrypto: rng.Intn(5) == 0}
		if rng.Intn(3) > 0 {
			a.Kind = model.Deterministic
			a.Period = periods[rng.Intn(len(periods))]
			a.WCET = sim.Duration(1+rng.Intn(int(a.Period/ms))) * ms / 2
			if rng.Intn(2) == 0 {
				a.Deadline = a.WCET + sim.Duration(rng.Intn(int(a.Period-a.WCET)+1))
			}
		} else {
			a.Kind = model.NonDeterministic
		}
		if rng.Intn(2) == 0 {
			for j := 0; j < 1+rng.Intn(3); j++ {
				a.Candidates = append(a.Candidates, candNames[rng.Intn(len(candNames))])
			}
		}
		s.Apps = append(s.Apps, a)
	}
	// Interfaces map to no network, to N, or — rarely, when N is absent —
	// to an unknown network.
	nets := []string{"", "", "", "N"}
	if rng.Intn(2) == 0 {
		nets = []string{"", "N", "N", "N"}
		net := &model.Network{Name: "N", Kind: model.NetEthernet, BitsPerSecond: 10_000_000}
		for _, e := range s.ECUs {
			if rng.Intn(3) > 0 {
				net.Attached = append(net.Attached, e.Name)
			}
		}
		s.Networks = append(s.Networks, net)
	}
	for i := 0; i < rng.Intn(4); i++ {
		ifc := &model.Interface{Name: fmt.Sprintf("I%d", i), Owner: s.Apps[rng.Intn(len(s.Apps))].Name,
			PayloadBytes: 8 * (1 + rng.Intn(8)), Period: periods[rng.Intn(len(periods))],
			Network: nets[rng.Intn(len(nets))]}
		s.Interfaces = append(s.Interfaces, ifc)
		for j := 0; j < rng.Intn(3); j++ {
			// Mostly respect the ASIL dependency rule, whose error would
			// make every placement infeasible.
			client := s.Apps[rng.Intn(len(s.Apps))]
			if client.ASIL <= s.App(ifc.Owner).ASIL || rng.Intn(4) == 0 {
				s.Bindings = append(s.Bindings, model.Binding{Client: client.Name, Interface: ifc.Name})
			}
		}
	}
	if rng.Intn(16) == 0 {
		s.Placement["Phantom"] = "E0"
	}
	return s
}

// FuzzIndexMatchesEvaluate checks the index against Evaluate on random
// systems: random partial placements, then every placement Greedy and
// Anneal visit. go test runs the seed corpus only; go test -fuzz
// explores further.
func FuzzIndexMatchesEvaluate(f *testing.F) {
	for seed := uint64(0); seed < 128; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sys := randomSystem(seed)
		o := newOracle(t, sys.Name, sys, nil)
		o.sample(sim.NewRNG(seed), 64)
		o.index().greedy()
		cfg := DefaultAnnealConfig()
		cfg.Iterations = 300
		o.index().anneal(cfg)
	})
}

// TestIndexEvaluateZeroAlloc gates the search inner loop: once the
// schedulability memo holds a placement's task sets, evaluating it
// allocates nothing, feasible or not.
func TestIndexEvaluateZeroAlloc(t *testing.T) {
	sys := e11Big()
	ix := newIndex(sys, DefaultWeights())
	g, pl := ix.greedy()
	if !g.Feasible {
		t.Fatal("greedy found nothing")
	}
	bad := append([]int(nil), pl...)
	for a := range bad {
		if cs := ix.Candidates(a); len(cs) > 1 {
			ix.Place(bad, a, cs[len(cs)-1])
		}
	}
	for _, p := range [][]int{pl, bad} {
		ix.evaluate(p)
		if n := testing.AllocsPerRun(200, func() { ix.evaluate(p) }); n != 0 {
			t.Errorf("evaluate allocates %.1f times per call", n)
		}
	}
}

// TestSchedMemoWideSets covers app sets wider than one 64-bit word: the
// memo key spans several words, so sets that differ only in the high word
// get separate verdicts. X (ordinal 0) and Y (ordinal 65) each need their
// whole 2ms deadline at the same release, so they fit on E only apart.
func TestSchedMemoWideSets(t *testing.T) {
	ms := sim.Millisecond
	sys := model.NewSystem("wide")
	sys.ECUs = []*model.ECU{rtos("E", 100, 1<<20, true, 10), rtos("F", 100, 1<<20, true, 10),
		rtos("Park", 100, 1<<20, true, 1)}
	tight := func(name string) *model.App {
		a := da(name, model.ASILB, 10*ms, 2*ms, 1)
		a.Deadline = 2 * ms
		return a
	}
	sys.Apps = append(sys.Apps, tight("X"))
	for i := 0; i < 64; i++ {
		filler := nda(fmt.Sprintf("filler%02d", i), model.QM, 1)
		filler.Candidates = []string{"Park"}
		sys.Apps = append(sys.Apps, filler)
	}
	sys.Apps = append(sys.Apps, tight("Y"))
	o := newOracle(t, "wide", sys, nil)
	ix := o.index()
	pl := ix.Unplaced()
	for a := range pl {
		ix.Place(pl, a, ix.Candidates(a)[0])
	}
	y := len(pl) - 1
	ix.Place(pl, y, 1) // Y on F
	if _, ok := ix.evaluate(pl); !ok {
		t.Fatal("X on E, Y on F judged infeasible")
	}
	ix.Place(pl, y, 0) // Y joins X on E
	if _, ok := ix.evaluate(pl); ok {
		t.Fatal("X and Y together on E judged feasible")
	}
	if o.checks != 2 {
		t.Fatalf("checked %d placements, want 2", o.checks)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	sys := e11Big()
	sys.Placement = Greedy(sys, DefaultWeights()).Placement
	w := DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Evaluate(sys, w); !ok {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkEvaluateIndexed(b *testing.B) {
	ix := newIndex(e11Big(), DefaultWeights())
	_, pl := ix.greedy()
	ix.evaluate(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.evaluate(pl); !ok {
			b.Fatal("infeasible")
		}
	}
}
