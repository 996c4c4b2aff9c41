package experiments

import (
	"bytes"
	"testing"

	"dynaplat/internal/obs"
)

// Observation must never change an experiment's result: the obs hooks
// schedule no kernel events and draw no randomness, so the observed E21
// table renders byte-identical to the plain one.
func TestE21ObservedMatchesPlain(t *testing.T) {
	old := ObsTraceCap
	ObsTraceCap = 1000 // keep memory modest; caps don't affect results
	defer func() { ObsTraceCap = old }()

	plain, err := Run("E21")
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunObserved("E21")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	plain.Render(&a)
	observed.Table.Render(&b)
	if a.String() != b.String() {
		t.Errorf("observed E21 table differs from plain:\n--- plain\n%s\n--- observed\n%s",
			a.String(), b.String())
	}
	if len(observed.Scopes) != 16 {
		t.Errorf("observed E21 scopes = %d, want 16 (4 levels × 4 configs)", len(observed.Scopes))
	}
	for _, sc := range observed.Scopes {
		if sc.Obs.Tracer().Len() == 0 {
			t.Errorf("scope %s recorded no trace events", sc.Name)
		}
	}
}

// TestObservedArtifactsByteIdentical: the Chrome trace and the metrics
// dump of an observed run are byte-identical across runs for the same
// seed — the determinism contract of DESIGN.md §7. verify.sh soaks this
// test with -count=2 so the guarantee is exercised across fresh
// processes as well.
func TestObservedArtifactsByteIdentical(t *testing.T) {
	old := ObsTraceCap
	ObsTraceCap = 20000
	defer func() { ObsTraceCap = old }()

	artifacts := func() (trace, metrics string) {
		run, err := RunObserved("E21")
		if err != nil {
			t.Fatal(err)
		}
		var tb, mb bytes.Buffer
		if err := obs.WriteChromeTrace(&tb, run.TraceScopes()); err != nil {
			t.Fatal(err)
		}
		if err := run.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), mb.String()
	}
	t1, m1 := artifacts()
	t2, m2 := artifacts()
	if t1 != t2 {
		t.Error("Chrome trace not byte-identical across observed runs")
	}
	if m1 != m2 {
		t.Error("metrics dump not byte-identical across observed runs")
	}
	if len(t1) == 0 || len(m1) == 0 {
		t.Error("observed artifacts empty")
	}
}

// RunObserved falls back to the plain runner for experiments without an
// observed registration.
func TestRunObservedFallback(t *testing.T) {
	run, err := RunObserved("E1")
	if err != nil {
		t.Fatal(err)
	}
	if run.Table == nil || len(run.Scopes) != 0 {
		t.Errorf("fallback run: table=%v scopes=%d", run.Table != nil, len(run.Scopes))
	}
	if run.Summary() != "(not instrumented)" {
		t.Errorf("fallback summary = %q", run.Summary())
	}
	if Observable("E1") {
		t.Error("E1 reported observable")
	}
	if !Observable("E21") {
		t.Error("E21 not reported observable")
	}
}
