package model

import (
	"testing"

	"dynaplat/internal/sim"
)

// TestPlacementIndexMatchesValidate enumerates every placement of every
// app name onto every name ordinal the index knows, or none, and checks
// that Check agrees with Validate on the same placement as a map. The
// variants of the demo system reach each placement-dependent rule, the
// name corner cases, and static errors that no placement can mend.
func TestPlacementIndexMatchesValidate(t *testing.T) {
	ms := sim.Millisecond
	variants := []struct {
		name   string
		mutate func(*System)
	}{
		{"demo", func(*System) {}},
		{"unknown candidate", func(s *System) { s.App("Brake").Candidates = []string{"CPM1", "Ghost", "Zone1"} }},
		{"slow zone", func(s *System) { // Brake's scaled WCET misses its deadline on Zone1 only
			s.ECU("Zone1").CPUMHz = 50
			s.App("Brake").Deadline = 3 * ms
		}},
		{"no mmu", func(s *System) { s.ECU("CPM1").HasMMU = false }},
		{"gpu and crypto", func(s *System) {
			s.App("Media").NeedsGPU = true
			s.App("Suspension").NeedsCrypto = true
		}},
		{"tight memory", func(s *System) { s.ECU("Zone1").MemoryKB = 100 }},
		{"negative memory", func(s *System) {
			s.ECU("Head").MemoryKB = -1
			s.App("Media").MemoryKB = -8192
		}},
		{"cpu load", func(s *System) { s.App("Suspension").WCET = 4 * ms }},
		{"unmapped iface", func(s *System) { s.Interface("BrakeStatus").Network = "" }},
		{"body bus", func(s *System) { s.Interface("BrakeStatus").Network = "Body" }},
		{"duplicate ecu", func(s *System) {
			s.ECUs = append(s.ECUs, &ECU{Name: "Zone1", CPUMHz: 50, MemoryKB: 64, OS: OSRTOS, Cost: 3})
		}},
		{"duplicate app", func(s *System) {
			s.Apps = append(s.Apps, &App{Name: "Brake", Kind: NonDeterministic, ASIL: QM, MemoryKB: 8,
				Candidates: []string{"Head"}})
		}},
		{"ecu named empty", func(s *System) { s.ECUs[2].Name = "" }},
		{"non-app key", func(s *System) { s.Placement["Ghost"] = "CPM1" }},
		{"static error", func(s *System) { s.App("Brake").Period = 0 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			s := demo(t)
			v.mutate(s)
			x := NewPlacementIndex(s)
			var keys []int
			for i := range s.Apps {
				if x.First(i) == i {
					keys = append(keys, i)
				}
			}
			pl := x.Unplaced()
			feasible, total := 0, 0
			var walk func(k int)
			walk = func(k int) {
				if k == len(keys) {
					placed := *s
					placed.Placement = x.PlacementMap(pl)
					want := Validate(&placed).OK()
					if got := x.Check(pl); got != want {
						t.Fatalf("placement %v: Check = %v, Validate OK = %v (%v)",
							placed.Placement, got, want, Validate(&placed).Errors())
					}
					total++
					if want {
						feasible++
					}
					return
				}
				for h := -1; h < len(x.names); h++ {
					if h >= 0 && h < len(s.ECUs) && s.ECU(x.Name(h)) != s.ECUs[h] {
						continue // a later ECU of a shared name has no ordinal of its own
					}
					x.Place(pl, keys[k], h)
					walk(k + 1)
				}
			}
			walk(0)
			t.Logf("%d placements, %d valid", total, feasible)
		})
	}
}

func TestPlacementIndexLoads(t *testing.T) {
	s := demo(t)
	s.ECUs = append(s.ECUs, &ECU{Name: "Zone1", CPUMHz: 50, MemoryKB: 1024, HasMMU: true, OS: OSRTOS})
	x := NewPlacementIndex(s)
	pl := x.Unplaced()
	for i, a := range s.Apps {
		// The demo's own deployment.
		for k := range x.names {
			if x.Name(k) == s.Placement[a.Name] {
				x.Place(pl, i, k)
				break
			}
		}
	}
	if !x.Check(pl) {
		t.Fatal("demo deployment rejected")
	}
	for e, ecu := range s.ECUs {
		l := x.Loads()[e]
		if l.Apps != len(s.AppsOn(ecu.Name)) || l.MemoryKB != s.ECUMemoryUse(ecu) || l.Util != s.ECUUtilization(ecu) {
			t.Errorf("%s: load %+v, want apps=%d mem=%d util=%v", ecu.Name, l,
				len(s.AppsOn(ecu.Name)), s.ECUMemoryUse(ecu), s.ECUUtilization(ecu))
		}
	}
	if got := x.PlacementMap(pl); len(got) != len(s.Placement) {
		t.Errorf("placement map %v, want %v", got, s.Placement)
	}
}
