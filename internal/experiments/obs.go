package experiments

import (
	"fmt"
	"io"
	"sort"

	"dynaplat/internal/obs"
)

// Observed experiment runs (DESIGN.md §7). An experiment that supports
// observation registers a second runner that wires an obs plane into
// every kernel it builds and returns the populated scopes alongside the
// usual table. Observation must never change the experiment's result:
// the obs hooks schedule no kernel events and draw no randomness, so an
// observed table is bit-identical to the plain one (asserted per
// experiment, e.g. TestE21ObservedMatchesPlain).

// ObsTraceCap bounds the retained trace records per scope for observed
// runs; 0 means unbounded. exprun sets it from -tracecap.
var ObsTraceCap int

// ObsScope is one kernel's observability plane within an observed run,
// e.g. one E21 sweep cell.
type ObsScope struct {
	Name string
	Obs  *obs.Obs
}

// ObsRun is an observed experiment's output: the table plus one obs
// scope per kernel the experiment built.
type ObsRun struct {
	Table  *Table
	Scopes []ObsScope
}

// TraceScopes adapts the run's scopes for obs.WriteChromeTrace.
func (r *ObsRun) TraceScopes() []obs.Scope {
	out := make([]obs.Scope, len(r.Scopes))
	for i, sc := range r.Scopes {
		out[i] = obs.Scope{Name: sc.Name, Trace: sc.Obs.Tracer()}
	}
	return out
}

// WriteMetrics dumps every scope's metrics registry to w, each under a
// deterministic "# scope <name>" header, in scope order.
func (r *ObsRun) WriteMetrics(w io.Writer) error {
	for _, sc := range r.Scopes {
		if _, err := fmt.Fprintf(w, "# scope %s\n", sc.Name); err != nil {
			return err
		}
		if err := sc.Obs.Metrics().WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns a deterministic one-paragraph metrics digest for the
// run: per-scope record counts plus a few headline counters. Used by
// exprun's per-experiment summary output.
func (r *ObsRun) Summary() string {
	if len(r.Scopes) == 0 {
		return "(not instrumented)"
	}
	records, dropped := 0, int64(0)
	for _, sc := range r.Scopes {
		if t := sc.Obs.Tracer(); t != nil {
			records += t.Len()
			dropped += t.Dropped
		}
	}
	return fmt.Sprintf("%d scopes, %d trace records (%d dropped)",
		len(r.Scopes), records, dropped)
}

// ObsRunner produces one observed experiment run.
type ObsRunner func() *ObsRun

var obsRegistry = map[string]ObsRunner{}

func registerObs(id string, r ObsRunner) {
	if _, dup := obsRegistry[id]; dup {
		panic("experiments: duplicate observed id " + id)
	}
	obsRegistry[id] = r
}

// Observable reports whether an experiment has an observed runner.
func Observable(id string) bool {
	_, ok := obsRegistry[id]
	return ok
}

// ObservableIDs returns the experiments with observed runners, in
// canonical order.
func ObservableIDs() []string {
	out := make([]string, 0, len(obsRegistry))
	for id := range obsRegistry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return expNum(out[i]) < expNum(out[j]) })
	return out
}

// RunObserved executes one experiment with full instrumentation. For
// experiments without an observed runner it falls back to the plain
// runner and returns no scopes.
func RunObserved(id string) (*ObsRun, error) {
	if r, ok := obsRegistry[id]; ok {
		return r(), nil
	}
	t, err := Run(id)
	if err != nil {
		return nil, err
	}
	return &ObsRun{Table: t}, nil
}
