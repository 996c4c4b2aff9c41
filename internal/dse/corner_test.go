package dse

import (
	"dynaplat/internal/model"
	"dynaplat/internal/sim"
)

type cornerCase struct {
	name string
	sys  *model.System
}

func rtos(name string, mhz, memKB int, mmu bool, cost int) *model.ECU {
	return &model.ECU{Name: name, CPUMHz: mhz, MemoryKB: memKB, HasMMU: mmu, OS: model.OSRTOS, Cost: cost}
}

func da(name string, asil model.ASIL, period, wcet sim.Duration, memKB int) *model.App {
	return &model.App{Name: name, Kind: model.Deterministic, ASIL: asil, Period: period, WCET: wcet, MemoryKB: memKB}
}

func nda(name string, asil model.ASIL, memKB int) *model.App {
	return &model.App{Name: name, Kind: model.NonDeterministic, ASIL: asil, MemoryKB: memKB}
}

// cornerCases are hand-built systems: each names the behaviour it pins.
func cornerCases() []cornerCase {
	ms := sim.Millisecond
	var out []cornerCase
	add := func(name string, s *model.System) { out = append(out, cornerCase{name, s}) }

	// Every placement rule in one statically valid system: Slow has no
	// MMU and a quarter of Fast's clock, Posix runs no RTOS, Island is on
	// no network, Ghost is no ECU, and Raw crosses ECUs with no network.
	k := model.NewSystem("kitchen")
	fast := rtos("Fast", 400, 1024, true, 40)
	fast.HasGPU, fast.HasCryptoHW = true, true
	k.ECUs = []*model.ECU{fast, rtos("Slow", 50, 256, false, 10),
		{Name: "Posix", CPUMHz: 1000, MemoryKB: 4096, HasMMU: true, OS: model.OSPOSIX, Cost: 25},
		rtos("Island", 200, 512, true, 15)}
	k.Networks = []*model.Network{{Name: "Bus", Kind: model.NetEthernet, BitsPerSecond: 100_000_000,
		Attached: []string{"Fast", "Slow", "Posix"}}}
	ctl := da("Ctl", model.ASILD, 10*ms, 4*ms, 64)
	ctl.Deadline = 6 * ms
	vision := nda("Vision", model.QM, 512)
	vision.NeedsGPU = true
	crypt := nda("Crypt", model.QM, 32)
	crypt.NeedsCrypto = true
	crypt.Candidates = []string{"Fast", "Slow", "Ghost"}
	k.Apps = []*model.App{ctl, da("Aux", model.QM, 4*ms, 2*ms, 64), vision, crypt,
		da("Load", model.QM, 5*ms, 3*ms, 16)}
	k.Interfaces = []*model.Interface{
		{Name: "CtlOut", Owner: "Ctl", PayloadBytes: 8, Period: 10 * ms, Network: "Bus"},
		{Name: "Raw", Owner: "Vision", Paradigm: model.Stream, PayloadBytes: 100, Period: 10 * ms},
	}
	k.Bindings = []model.Binding{{Client: "Aux", Interface: "CtlOut"}, {Client: "Crypt", Interface: "Raw"}}
	add("kitchen", k)

	// Two ECUs share the name X: System.AppsOn matches by name, so both
	// host whatever is placed on X, and candidates list X twice.
	d := model.NewSystem("dup-ecus")
	d.ECUs = []*model.ECU{rtos("X", 100, 1024, true, 10), rtos("X", 200, 128, false, 5),
		{Name: "Y", CPUMHz: 500, MemoryKB: 4096, HasMMU: true, OS: model.OSPOSIX, Cost: 20}}
	c := nda("C", model.QM, 64)
	c.Candidates = []string{"X", "Y", "X"}
	d.Apps = []*model.App{da("A", model.ASILC, 10*ms, 3*ms, 64), da("B", model.QM, 10*ms, 4*ms, 64), c}
	add("dup-ecus", d)

	// Two apps share the name A: they share one placement key, so the
	// second is placed wherever the first is, and the first may land
	// outside its own candidates. B binds A's interface over a network
	// that skips R.
	a := model.NewSystem("dup-apps")
	a.ECUs = []*model.ECU{rtos("P", 200, 1024, true, 10), rtos("Q", 200, 1024, true, 12), rtos("R", 100, 1024, true, 8)}
	a.Networks = []*model.Network{{Name: "N", Kind: model.NetCAN, BitsPerSecond: 500_000, Attached: []string{"P", "Q"}}}
	a1 := da("A", model.ASILB, 10*ms, 2*ms, 64)
	a1.Candidates = []string{"P", "Q"}
	a2 := nda("A", model.ASILB, 64)
	a.Apps = []*model.App{a1, da("B", model.ASILA, 20*ms, 5*ms, 64), a2}
	a.Interfaces = []*model.Interface{{Name: "AOut", Owner: "A", PayloadBytes: 8, Period: 20 * ms, Network: "N"}}
	a.Bindings = []model.Binding{{Client: "B", Interface: "AOut"}}
	add("dup-apps", a)

	// Thirteen apps share two names and differ only in the order of their
	// candidates; the ECUs cost the same, so ties go to the first
	// candidate tried and a search's result shows which app it tried
	// last. Above twelve elements sort.Slice is not stable, so the
	// searches must order equal names exactly as before.
	many := model.NewSystem("many-dup-apps")
	many.ECUs = []*model.ECU{rtos("P", 100, 1024, true, 10), rtos("Q", 100, 1024, true, 10)}
	for i := 0; i < 13; i++ {
		app := nda([]string{"M", "N"}[i%2], model.QM, 8)
		app.Candidates = [][]string{{"P", "Q"}, {"Q", "P"}}[i/2%2]
		many.Apps = append(many.Apps, app)
	}
	add("many-dup-apps", many)
	// The same with an app that fits nowhere: Greedy fails, so Anneal's
	// random restart draws from each app's own candidate order.
	stuck := many.Clone()
	ghost := nda("Z", model.QM, 8)
	ghost.Candidates = []string{"Ghost"}
	stuck.Apps = append(stuck.Apps, ghost)
	add("many-dup-apps-stuck", stuck)

	// A placement key that is no app is an error whatever the placement.
	n := smallSystem()
	n.Placement["Phantom"] = "Big"
	add("non-app-key", n)

	// Negative memory: an ECU with negative RAM is over-committed even
	// when empty; an app with negative memory frees room for the others.
	m := smallSystem()
	m.ECU("Big").MemoryKB = -1
	m.App("Wiper").MemoryKB = -600
	m.App("Brake").MemoryKB = 600
	add("negative-memory", m)

	// DM response-time analysis rejects T1+T2 on one ECU (U = 1), EDF
	// table synthesis accepts it.
	e := model.NewSystem("edf")
	e.ECUs = []*model.ECU{rtos("E", 100, 1024, true, 10), rtos("F", 100, 1024, true, 10)}
	e.Apps = []*model.App{da("T1", model.ASILB, 4*ms, 2*ms, 16), da("T2", model.ASILB, 6*ms, 3*ms, 16)}
	add("rta-fails-edf-passes", e)

	// An ECU named "": System.AppsOn counts unplaced apps as hosted there.
	z := model.NewSystem("empty-ecu-name")
	z.ECUs = []*model.ECU{rtos("", 100, 128, false, 3), rtos("Z", 100, 1024, true, 10)}
	z.Apps = []*model.App{da("U", model.ASILD, 10*ms, 6*ms, 64), da("V", model.QM, 10*ms, 5*ms, 64)}
	add("empty-ecu-name", z)
	return out
}
