package model

// PlacementIndex is a System compiled for validating many placements of
// its apps, the inner loop of design-space exploration (internal/dse).
// Ordinals replace names, the placement-independent rules are decided
// once, and the rules that depend on placement become table lookups plus
// one pass over dense per-ECU totals. Check(pl) returns exactly what
// Validate(s).OK() returns for the system with that placement; Validate
// stays the reference the index is tested against.
//
// A placement is a []int indexed by app ordinal (position in System.Apps)
// holding the host's name ordinal, or -1 for an unplaced app. Name
// ordinal k < len(ECUs) stands for ECUs[k].Name and is only used for the
// first ECU bearing that name; ordinals from len(ECUs) on stand for
// candidate names that are no ECU. Placement maps are keyed by app name,
// so apps sharing a name share a host; Place keeps them in step.
//
// The index reads the System it was built from and must not outlive a
// change to it. Check reuses internal buffers, so an index serves one
// goroutine.
type PlacementIndex struct {
	sys   *System
	names []string // name ordinal → name
	cands [][]int  // app → candidate name ordinals, in candidate order
	first []int    // app → first app with the same name (System.App)
	ring  []int    // app → next app with the same name, cyclically
	// legal[app*len(names)+name] reports that the per-app placement
	// rules (known ECU, candidate set, RTOS, GPU, crypto, scaled WCET
	// against the deadline) pass for that host.
	legal []bool
	// nextECU chains ECUs sharing a name: System.AppsOn matches by name,
	// so every ECU in the chain hosts the same apps.
	nextECU []int
	// unplacedHost is the name ordinal of an ECU named "", or -1:
	// System.AppsOn counts unplaced apps as hosted there.
	unplacedHost int
	util         []float64 // ecu*len(apps)+app → deterministic utilization on that ECU
	bindings     []IndexBinding
	attach       []bool // network*len(names)+name → the network attaches that name
	staticOK     bool
	extra        map[string]string // placement entries whose key is no app

	loads []ECULoad // per ECU, filled by Check
}

// IndexBinding is one System.Bindings entry resolved to ordinals.
type IndexBinding struct {
	// Client and Owner are the app ordinals of the binding's client and
	// of the interface's owner, or -1 for a name that is no app.
	Client, Owner int
	// Iface is the bound interface, nil when the name is unknown.
	Iface *Interface
	// net is the ordinal of the interface's network, -1 when it is
	// unmapped or unknown; mapped records Iface.Network != "".
	net    int
	mapped bool
}

// ECULoad is one ECU's share of a placement.
type ECULoad struct {
	// Apps counts the hosted apps, as len(System.AppsOn) would.
	Apps int
	// MemoryKB is System.ECUMemoryUse.
	MemoryKB int
	// Util is System.ECUUtilization, summed in System.Apps order.
	Util float64
	// Deterministic is the set of hosted deterministic apps, one bit per
	// app ordinal.
	Deterministic []uint64
	minASIL       ASIL
	maxASIL       ASIL
}

// NewPlacementIndex compiles s. The placements already in s play no part
// except for keys that are no app, which keep their error.
func NewPlacementIndex(s *System) *PlacementIndex {
	nApps, nECUs := len(s.Apps), len(s.ECUs)
	x := &PlacementIndex{
		sys:          s,
		cands:        make([][]int, nApps),
		first:        make([]int, nApps),
		ring:         make([]int, nApps),
		nextECU:      make([]int, nECUs),
		unplacedHost: -1,
		extra:        map[string]string{},
		loads:        make([]ECULoad, nECUs),
	}

	id := map[string]int{}
	for e, ecu := range s.ECUs {
		x.names = append(x.names, ecu.Name)
		x.nextECU[e] = -1
		if f, ok := id[ecu.Name]; ok {
			for x.nextECU[f] >= 0 {
				f = x.nextECU[f]
			}
			x.nextECU[f] = e
			continue
		}
		id[ecu.Name] = e
	}
	if h, ok := id[""]; ok {
		x.unplacedHost = h
	}
	nameOf := func(n string) int {
		if k, ok := id[n]; ok {
			return k
		}
		id[n] = len(x.names)
		x.names = append(x.names, n)
		return id[n]
	}
	appOf := map[string]int{}
	for i, a := range s.Apps {
		if len(a.Candidates) > 0 {
			for _, c := range a.Candidates {
				x.cands[i] = append(x.cands[i], nameOf(c))
			}
		} else {
			for _, ecu := range s.ECUs {
				x.cands[i] = append(x.cands[i], id[ecu.Name])
			}
		}
		x.ring[i] = i
		f, ok := appOf[a.Name]
		if !ok {
			appOf[a.Name] = i
			x.first[i] = i
			continue
		}
		x.first[i] = f
		x.ring[i], x.ring[f] = x.ring[f], i
	}

	nNames := len(x.names)
	x.legal = make([]bool, nApps*nNames)
	x.util = make([]float64, nECUs*nApps)
	for i, a := range s.Apps {
		for _, k := range x.cands[i] {
			if k < nECUs {
				x.legal[i*nNames+k] = legalHost(a, s.ECUs[k])
			}
		}
		if a.Kind != Deterministic || a.Period <= 0 {
			continue
		}
		for e, ecu := range s.ECUs {
			x.util[e*nApps+i] = float64(ecu.ScaledWCET(a.WCET)) / float64(a.Period)
		}
	}

	x.attach = make([]bool, len(s.Networks)*nNames)
	netOf := map[string]int{}
	for n, net := range s.Networks {
		if _, ok := netOf[net.Name]; !ok {
			netOf[net.Name] = n
		}
		for k, name := range x.names {
			x.attach[n*nNames+k] = net.Attaches(name)
		}
	}
	ordinal := func(m map[string]int, name string) int {
		if k, ok := m[name]; ok {
			return k
		}
		return -1
	}
	for _, b := range s.Bindings {
		ib := IndexBinding{Client: ordinal(appOf, b.Client), Owner: -1, net: -1}
		if ifc := s.Interface(b.Interface); ifc != nil {
			ib.Iface = ifc
			ib.Owner = ordinal(appOf, ifc.Owner)
			ib.mapped = ifc.Network != ""
			ib.net = ordinal(netOf, ifc.Network)
		}
		x.bindings = append(x.bindings, ib)
	}

	words := (nApps + 63) / 64
	da := make([]uint64, nECUs*words)
	for e := range x.loads {
		x.loads[e].Deterministic = da[e*words : (e+1)*words : (e+1)*words]
	}

	// The placement-independent rules: validate with the app placements
	// removed and keep the errors of every rule placement cannot change.
	stripped := *s
	stripped.Placement = map[string]string{}
	for k, v := range s.Placement {
		if _, isApp := appOf[k]; !isApp {
			stripped.Placement[k] = v
			x.extra[k] = v
		}
	}
	x.staticOK = true
	for _, f := range Validate(&stripped).Findings {
		if f.Severity == Error && !placementRules[f.Rule] {
			x.staticOK = false
		}
	}
	return x
}

// legalHost reports whether the per-app placement rules of Validate
// (validatePlacement and the scaled-WCET check of validateTiming) accept
// ecu, the first ECU bearing one of a's candidate names, as a's host.
func legalHost(a *App, ecu *ECU) bool {
	if a.Kind == Deterministic && ecu.OS != OSRTOS {
		return false
	}
	if (a.NeedsGPU && !ecu.HasGPU) || (a.NeedsCrypto && !ecu.HasCryptoHW) {
		return false
	}
	if a.Kind == Deterministic && a.Period > 0 && a.WCET > 0 && a.Deadline > 0 &&
		ecu.ScaledWCET(a.WCET) > a.Deadline {
		return false
	}
	return true
}

// System returns the compiled system.
func (x *PlacementIndex) System() *System { return x.sys }

// Name returns the name of a name ordinal.
func (x *PlacementIndex) Name(k int) string { return x.names[k] }

// Candidates returns the name ordinals app may be placed on, in the order
// of its Candidates, or of System.ECUs when it has none. The slice is
// shared and must not be modified.
func (x *PlacementIndex) Candidates(app int) []int { return x.cands[app] }

// First returns the first app with app's name, the one System.App finds.
func (x *PlacementIndex) First(app int) int { return x.first[app] }

// Bindings returns System.Bindings resolved to ordinals, in order. The
// slice is shared and must not be modified.
func (x *PlacementIndex) Bindings() []IndexBinding { return x.bindings }

// Unplaced returns a placement with every app unplaced.
func (x *PlacementIndex) Unplaced() []int {
	pl := make([]int, len(x.sys.Apps))
	for i := range pl {
		pl[i] = -1
	}
	return pl
}

// Place sets the host of app, and of every app sharing its name, to the
// name ordinal k (-1 unplaces them).
func (x *PlacementIndex) Place(pl []int, app, k int) {
	for j := app; ; {
		pl[j] = k
		if j = x.ring[j]; j == app {
			return
		}
	}
}

// Check reports whether Validate finds no error in the system with
// placement pl. When it returns true, Loads describes pl.
func (x *PlacementIndex) Check(pl []int) bool {
	if !x.staticOK {
		return false
	}
	for e := range x.loads {
		l := &x.loads[e]
		l.Apps, l.MemoryKB, l.Util = 0, 0, 0
		clear(l.Deterministic)
	}
	nApps, nNames := len(x.sys.Apps), len(x.names)
	for i, a := range x.sys.Apps {
		h := pl[i]
		if h < 0 {
			if h = x.unplacedHost; h < 0 {
				continue
			}
		} else if !x.legal[i*nNames+h] {
			return false
		}
		for e := h; e >= 0; e = x.nextECU[e] {
			l := &x.loads[e]
			if l.Apps == 0 || a.ASIL < l.minASIL {
				l.minASIL = a.ASIL
			}
			if l.Apps == 0 || a.ASIL > l.maxASIL {
				l.maxASIL = a.ASIL
			}
			l.Apps++
			l.MemoryKB += a.MemoryKB
			if a.Kind == Deterministic {
				l.Deterministic[i>>6] |= 1 << (i & 63)
				if a.Period > 0 {
					l.Util += x.util[e*nApps+i]
				}
			}
		}
	}
	for e, ecu := range x.sys.ECUs {
		l := &x.loads[e]
		if l.Apps >= 2 && !ecu.HasMMU && l.minASIL != l.maxASIL {
			return false
		}
		if l.MemoryKB > ecu.MemoryKB || l.Util > 1.0 {
			return false
		}
	}
	for _, b := range x.bindings {
		if b.Iface == nil || b.Client < 0 || b.Owner < 0 {
			continue
		}
		c, o := pl[b.Client], pl[b.Owner]
		if c < 0 || o < 0 || c == o {
			continue
		}
		if !b.mapped {
			return false
		}
		if b.net >= 0 && (!x.attach[b.net*nNames+c] || !x.attach[b.net*nNames+o]) {
			return false
		}
	}
	return true
}

// Loads returns every ECU's share of the placement last passed to Check,
// in System.ECUs order. It is valid only after Check returned true, and
// the next Check overwrites it.
func (x *PlacementIndex) Loads() []ECULoad { return x.loads }

// PlacementMap renders pl as a System.Placement map, including the
// entries for keys that are no app.
func (x *PlacementIndex) PlacementMap(pl []int) map[string]string {
	m := make(map[string]string, len(x.extra)+len(pl))
	for k, v := range x.extra {
		m[k] = v
	}
	for i, k := range pl {
		if k >= 0 {
			m[x.sys.Apps[i].Name] = x.names[k]
		}
	}
	return m
}
