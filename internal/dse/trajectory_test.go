package dse

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dynaplat/internal/sim"
	"dynaplat/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectories.golden")

// trajectorySystems are the inputs whose search results are pinned:
// smallSystem, a variant of it where nothing is feasible (so Greedy fails
// and Anneal takes its random restart), two seeded fleets at the
// dse-explore sizes, and the hand-built corner cases.
func trajectorySystems() []cornerCase {
	infeasible := smallSystem()
	infeasible.App("Brake").Candidates = []string{"Head"}
	return append([]cornerCase{
		{"small", smallSystem()},
		{"small-infeasible", infeasible},
		{"fleet-3x4-seed3", workload.Fleet(sim.NewRNG(3), 3, 4, 0, 1, 0.6)},
		{"fleet-4x6-seed11", workload.Fleet(sim.NewRNG(11), 4, 6, 0, 1, 0.6)},
	}, cornerCases()...)
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fmtCost(c Cost) string {
	return fmt.Sprintf("ecucost=%d used=%d maxutil=%s cross=%s total=%s",
		c.ECUCost, c.UsedECUs, fmtFloat(c.MaxUtil), fmtFloat(c.CrossMbps), fmtFloat(c.Total))
}

func fmtPlacement(p map[string]string) string {
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

func fmtResult(tag string, r Result) string {
	return fmt.Sprintf("%s feasible=%v evaluated=%d %s placement=%s\n",
		tag, r.Feasible, r.Evaluated, fmtCost(r.Cost), fmtPlacement(r.Placement))
}

// renderTrajectories runs every search on every pinned system, Pareto
// both exhaustively and by sampling, and renders the results exactly:
// float fields round-trip, placements are sorted.
func renderTrajectories() string {
	var b strings.Builder
	w := DefaultWeights()
	for _, s := range trajectorySystems() {
		fmt.Fprintf(&b, "system %s\n", s.name)
		ex, err := Exhaustive(s.sys, w, 0)
		b.WriteString(fmtResult(fmt.Sprintf("exhaustive err=%v", err), ex))
		b.WriteString(fmtResult("greedy", Greedy(s.sys, w)))
		b.WriteString(fmtResult("anneal", Anneal(s.sys, w, DefaultAnnealConfig())))
		for i, p := range ParetoFront(s.sys, 0, 1) {
			fmt.Fprintf(&b, "pareto[%d] %s placement=%s\n", i, fmtCost(p.Cost), fmtPlacement(p.Placement))
		}
		// A budget below every space here forces the sampling branch.
		for i, p := range ParetoFront(s.sys, 20, 7) {
			fmt.Fprintf(&b, "pareto-sampled[%d] %s placement=%s\n", i, fmtCost(p.Cost), fmtPlacement(p.Placement))
		}
	}
	return b.String()
}

// TestSearchTrajectoriesPinned holds the results of Exhaustive, Greedy,
// Anneal and ParetoFront — evaluation counts, every cost field and the
// placements — to the values recorded before the searches moved onto the
// compiled placement index. An optimisation that changes what a search
// visits, in which order, or how it breaks ties fails here. Regenerate
// with -update only for a deliberate change of search behaviour.
func TestSearchTrajectoriesPinned(t *testing.T) {
	path := filepath.Join("testdata", "trajectories.golden")
	got := renderTrajectories()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("trajectory differs at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
