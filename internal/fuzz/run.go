package fuzz

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"dynaplat/internal/admission"
	"dynaplat/internal/can"
	"dynaplat/internal/faults"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/reconfig"
	"dynaplat/internal/safety/update"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

// Universal-property names (DESIGN.md §12).
const (
	PropRerun        = "rerun-identity"
	PropBackend      = "backend-differential"
	PropObsNeutral   = "observation-neutrality"
	PropConservation = "conservation"
	PropQuiesce      = "quiesce"
	PropRollback     = "rollback-identity"
)

// Violation is one property breach found for a scenario.
type Violation struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
}

// runOpts selects the kernel backend and observation plane for one run.
type runOpts struct {
	// heapOnly disables the timing-wheel fast path (property 2's
	// differential arm). Per-kernel, so parallel seeds stay race-free.
	heapOnly bool
	// observe wires the full obs plane (property 3).
	observe bool
}

// runResult is the outcome of one scenario execution.
type runResult struct {
	fingerprint string
	violations  []Violation
	trace       []byte // observed runs only
	metrics     []byte
}

const (
	// runTail bounds settling after the horizon: mesh call budgets are
	// <= 200 ms, so every conservation account is closed by then.
	runTail = 300 * sim.Millisecond
	// quiesceSettle is how long after teardown the kernel may still
	// drain in-flight frames and one-shot timers before the leak audit.
	quiesceSettle = 400 * sim.Millisecond
)

// fuzzTarget absorbs campaign control calls for a non-platform ECU; the
// observable fault effect is the campaign's network partition.
type fuzzTarget struct{ hung bool }

func (t *fuzzTarget) Crash() []string     { return nil }
func (t *fuzzTarget) Restore([]string)    {}
func (t *fuzzTarget) SetHung(h bool)      { t.hung = h }
func (t *fuzzTarget) SetSlowdown(float64) {}

// pubState accumulates one publisher's observable outcome.
type pubState struct {
	published    int64
	delivered    int64
	auxDelivered int64
	misses       int64
	seen         []bool
	rel          *soa.ReliableSub
}

// runScenario executes one spec through the full stack and returns its
// behavioral fingerprint plus any in-run property violations
// (conservation, quiesce, rollback identity). The fingerprint is
// backend-invariant and observation-invariant by construction: it reads
// only application-visible state, never kernel internals or obs data.
func runScenario(sp Spec, opt runOpts) *runResult {
	res := &runResult{}
	violate := func(prop, format string, args ...any) {
		res.violations = append(res.violations, Violation{
			Property: prop, Detail: fmt.Sprintf(format, args...),
		})
	}

	k := sim.NewKernel(sp.Seed)
	if opt.heapOnly {
		k.DisableWheel()
	}
	var o *obs.Obs
	if opt.observe {
		o = obs.New(k)
		o.T.Cap = 4096
		o.BridgeKernelTrace(k)
	}

	// Buses, each wrapped in the fault interceptor (zero-rate when no
	// campaign) so partitions and babble have somewhere to act.
	var cs CampaignSpec
	if sp.Campaign != nil {
		cs = *sp.Campaign
	}
	mkNet := func(ns NetSpec) (*faults.NetFaults, int) {
		var medium network.Network
		mtu := 1400
		if ns.Kind == "can" {
			medium = can.New(k, can.Config{Name: ns.Name, BitsPerSecond: ns.BPS,
				WorstCaseStuffing: true})
			mtu = 8
		} else {
			cfg := tsn.DefaultConfig(ns.Name)
			cfg.BitsPerSecond = ns.BPS
			medium = tsn.New(k, cfg)
		}
		nf := faults.WrapNetwork(k, medium, faults.NetConfig{
			LossRate: cs.Loss, CorruptRate: cs.Corrupt,
		})
		if o != nil {
			tap := obs.NewNetTap(o)
			if tappable, ok := medium.(interface{ SetTap(network.Tap) }); ok {
				tappable.SetTap(tap)
			}
			nf.SetTap(tap)
		}
		return nf, mtu
	}
	nfBB, mtuBB := mkNet(sp.Backbone)
	nets := []*faults.NetFaults{nfBB}
	mw := soa.New(k, nil)
	mw.SetObs(o)
	mw.SetJitterSeed(sp.Seed ^ 0x5A5A5A5A)
	mw.AddNetwork(nfBB, mtuBB)
	if sp.Aux != nil {
		nfAux, mtuAux := mkNet(*sp.Aux)
		nets = append(nets, nfAux)
		mw.AddNetwork(nfAux, mtuAux)
	}

	// Platform tier (update / reconfig scenarios install apps for real).
	platformOn := sp.Update != nil || sp.Reconfig != nil
	var p *platform.Platform
	if platformOn {
		p = platform.New(k, mw)
		for _, e := range sp.ECUs {
			ecu := model.ECU{Name: e.Name, CPUMHz: e.CPUMHz, MemoryKB: e.MemKB,
				HasMMU: true, OS: model.OSRTOS}
			if _, err := p.AddNode(ecu, platform.ModeIsolated, 250*sim.Microsecond); err != nil {
				panic(fmt.Sprintf("fuzz: add node %s: %v", e.Name, err))
			}
		}
		platform.ObservePlatform(o, p)
	}

	// Publishers and the sink's delivery bitmaps. Self-rearming tickers
	// park their latest EventRef here so teardown can cancel any that
	// are still pending (they stop re-arming at the horizon on their
	// own; the cancel keeps the quiesce property about the platform
	// under test, not about the harness's own timers).
	var tickerRefs []*sim.EventRef
	sink := mw.Endpoint("dash", "sink")
	pubs := make([]*pubState, len(sp.Pubs))
	for i, pub := range sp.Pubs {
		i, pub := i, pub
		st := &pubState{}
		pubs[i] = st
		periods := int(int64(sp.Horizon) / int64(pub.Period))
		st.seen = make([]bool, periods)

		ep := mw.Endpoint(pub.App, pub.Home)
		ep.Offer(pub.Iface, soa.OfferOpts{Network: sp.Backbone.Name,
			Class: network.ClassControl})
		if pub.History > 0 {
			if err := ep.EnableHistory(pub.Iface, pub.History); err != nil {
				panic(err)
			}
		}
		if pub.AuxIface != "" {
			ep.Offer(pub.AuxIface, soa.OfferOpts{Network: sp.Aux.Name,
				Class: network.ClassPriority})
		}

		publish := func() {
			idx := int(int64(k.Now()) / int64(pub.Period))
			if idx >= periods {
				return
			}
			st.published++
			if pub.Reliable {
				ep.PublishSeq(pub.Iface, pub.Payload, idx)
			} else {
				ep.Publish(pub.Iface, pub.Payload, idx)
			}
			if pub.AuxIface != "" {
				ep.Publish(pub.AuxIface, pub.Payload, idx)
			}
		}

		onEvent := func(ev soa.Event) {
			if idx, ok := ev.Payload.(int); ok && idx >= 0 && idx < periods {
				st.seen[idx] = true
				st.delivered++
			}
		}
		qos := soa.QoS{History: pub.History, Deadline: pub.QoSDeadline,
			OnDeadlineMiss: func(string, sim.Duration) { st.misses++ }}
		if pub.Reliable {
			rel, err := sink.SubscribeReliable(pub.Iface, qos, true, onEvent)
			if err != nil {
				panic(err)
			}
			st.rel = rel
		} else if pub.QoSDeadline > 0 || pub.History > 0 {
			if err := sink.SubscribeQoS(pub.Iface, qos, onEvent); err != nil {
				panic(err)
			}
		} else {
			if err := sink.Subscribe(pub.Iface, onEvent); err != nil {
				panic(err)
			}
		}
		if pub.AuxIface != "" {
			if err := sink.Subscribe(pub.AuxIface, func(ev soa.Event) {
				if _, ok := ev.Payload.(int); ok {
					st.auxDelivered++
				}
			}); err != nil {
				panic(err)
			}
		}

		if platformOn {
			spec := model.App{Name: pub.App, Kind: model.Deterministic,
				ASIL: model.ASILD, Period: pub.Period, WCET: pub.WCET,
				Deadline: pub.Period, MemoryKB: pub.MemKB, Version: 1}
			inst, err := p.Node(pub.Home).Install(spec,
				platform.Behavior{OnActivate: func(int64) { publish() }})
			if err != nil {
				panic(fmt.Sprintf("fuzz: install %s: %v", pub.App, err))
			}
			if err := inst.Start(); err != nil {
				panic(err)
			}
		} else {
			phase := sim.Duration(i+1) * 97 * sim.Microsecond
			ref := new(sim.EventRef)
			var tick func()
			tick = func() {
				if k.Now() >= sim.Time(sp.Horizon) {
					return
				}
				publish()
				*ref = k.After(pub.Period, tick)
			}
			*ref = k.At(sim.Time(phase), tick)
			tickerRefs = append(tickerRefs, ref)
		}
	}

	// Scheduled endpoint migrations (plain scenarios).
	for _, mig := range sp.Migrations {
		mig := mig
		k.At(sim.Time(mig.At), func() {
			if ep := mw.EndpointOf(mig.App); ep != nil {
				ep.Migrate(mig.To)
			}
		})
	}

	// Mesh tier.
	var ms *soa.Mesh
	if sp.Mesh != nil {
		m := sp.Mesh
		var breaker *soa.BreakerConfig
		switch m.Breaker {
		case "default":
			b := soa.DefaultBreakerConfig()
			breaker = &b
		case "fast":
			breaker = &soa.BreakerConfig{Window: 6, MinSamples: 3,
				FailureRate: 0.5, OpenFor: 20 * sim.Millisecond}
		}
		ms = soa.NewMesh(mw, soa.MeshConfig{
			Policy:      soa.BalancePolicy(m.Policy),
			Breaker:     breaker,
			QueueDepth:  m.QueueDepth,
			Concurrency: m.Concurrency,
		})
		for _, e := range sp.ECUs {
			ms.SetZone(e.Name, e.Zone)
		}
		ms.SetZone("cliF", "front")
		ms.SetZone("cliR", "rear")
		for _, svc := range m.Services {
			svc := svc
			for r, home := range svc.Homes {
				ep := mw.Endpoint(fmt.Sprintf("%s-r%d", svc.Name, r), home)
				ms.Offer(ep, svc.Name, soa.OfferOpts{
					Network: sp.Backbone.Name, Class: network.ClassPriority,
					Handler: func(any) (int, any, sim.Duration) { return 64, "ok", svc.Proc },
				})
			}
		}
		daPol := soa.RetryPolicy{MaxAttempts: 3, Backoff: 4 * sim.Millisecond,
			MaxBackoff: 16 * sim.Millisecond, Multiplier: 2, JitterFrac: 0.2,
			Budget: 100 * sim.Millisecond}
		bePol := soa.RetryPolicy{MaxAttempts: 2, Backoff: 4 * sim.Millisecond,
			MaxBackoff: 8 * sim.Millisecond, Multiplier: 2, JitterFrac: 0.2,
			Budget: 200 * sim.Millisecond}
		clients := map[string]*soa.Endpoint{
			"cliF": mw.Endpoint("cli-front", "cliF"),
			"cliR": mw.Endpoint("cli-rear", "cliR"),
		}
		for si, stream := range m.Streams {
			stream := stream
			cl := clients[stream.Client]
			if cl == nil {
				panic(fmt.Sprintf("fuzz: stream client %q unknown", stream.Client))
			}
			pol := bePol
			crit := soa.Criticality(stream.Crit)
			if crit >= soa.CritASILD {
				pol = daPol
			}
			interval := sim.Second / sim.Duration(stream.Rate)
			phase := sim.Duration(si+1) * 73 * sim.Microsecond
			ref := new(sim.EventRef)
			var tick func()
			tick = func() {
				if k.Now() >= sim.Time(sp.Horizon) {
					return
				}
				err := ms.Call(cl, stream.Service, soa.MeshCallOpts{
					Criticality: crit, ReqBytes: 48,
					PerTry: 25 * sim.Millisecond, Retry: pol,
				}, func(soa.Event) {}, nil)
				if err != nil {
					panic(err)
				}
				*ref = k.After(interval, tick)
			}
			*ref = k.At(sim.Time(phase), tick)
			tickerRefs = append(tickerRefs, ref)
		}
	}

	// Fault campaign.
	var camp *faults.Campaign
	var babbler *faults.Babbler
	if sp.Campaign != nil {
		camp = faults.NewCampaign(k, faults.Spec{
			Seed:        sp.Seed ^ 0xC0FFEE,
			Horizon:     sp.Horizon,
			MTBF:        cs.MTBF,
			RepairMean:  cs.RepairMean,
			RebootDelay: cs.RebootDelay,
			Weights: faults.Weights{Crash: cs.WCrash, Hang: cs.WHang,
				Slowdown: cs.WSlow, Reboot: cs.WReboot},
		})
		hostExcluded := ""
		if sp.Update != nil {
			// The OTA host stays healthy: rollback identity is then a
			// pure function of the update machinery, not of whichever
			// fault happened to hit the host mid-update.
			hostExcluded = sp.Pubs[0].Home
		}
		for _, e := range sp.ECUs {
			if e.Name == hostExcluded {
				continue
			}
			if platformOn {
				camp.AddTarget(e.Name, p.Node(e.Name))
			} else {
				camp.AddTarget(e.Name, &fuzzTarget{})
			}
		}
		for _, nf := range nets {
			camp.AddNetwork(nf)
		}
		if ms != nil && sp.Mesh.Evict {
			camp.HookECULifecycle(ms.ECULifecycle())
		}
		if cs.Babble != nil {
			babbler = nfBB.StartBabble("bbl", cs.Babble.ID,
				network.ClassPriority, cs.Babble.Bytes, cs.Babble.Period)
		}
		camp.Start()
	}

	// Staged-verified update tier (property 6a: rollback byte-identity).
	var updRep update.Report
	updDone := false
	if sp.Update != nil {
		us := *sp.Update
		target := sp.Pubs[0]
		node := p.Node(target.Home)
		mgr := update.NewManager(p, mw, update.DefaultConfig())
		// Seed persistent state so the sync and drop paths do real work.
		node.Store().Put(target.App, "calibration", []byte("v1-tables"))
		node.Store().Put(target.App, "odometer", []byte("42"))

		newName := target.App + "@2"
		ifaces := []string{target.Iface}
		offers := []update.Offers{{Iface: target.Iface,
			Opts: soa.OfferOpts{Network: sp.Backbone.Name,
				Class: network.ClassControl, Version: 2}}}
		if target.AuxIface != "" {
			ifaces = append(ifaces, target.AuxIface)
			offers = append(offers, update.Offers{Iface: target.AuxIface,
				Opts: soa.OfferOpts{Network: sp.Aux.Name,
					Class: network.ClassPriority, Version: 2}})
		}
		if us.ExtraIface {
			ifaces = append(ifaces, target.App+".v2extra")
			offers = append(offers, update.Offers{Iface: target.App + ".v2extra",
				Opts: soa.OfferOpts{Network: sp.Backbone.Name,
					Class: network.ClassPriority, Version: 2}})
		}
		v2 := model.App{Name: target.App, Kind: model.Deterministic,
			ASIL: model.ASILD, Period: target.Period, WCET: target.WCET,
			Deadline: target.Period, MemoryKB: target.MemKB, Version: 2}
		behavior := platform.Behavior{OnActivate: func(int64) {
			idx := int(int64(k.Now()) / int64(target.Period))
			if idx >= len(pubs[0].seen) {
				return
			}
			ep := mw.Endpoint(newName, target.Home)
			if target.Reliable {
				ep.PublishSeq(target.Iface, target.Payload, idx)
			} else {
				ep.Publish(target.Iface, target.Payload, idx)
			}
		}}
		verify := func() error {
			if us.Bad {
				return fmt.Errorf("soak regression: bad image")
			}
			return nil
		}
		k.At(sim.Time(us.Start), func() {
			pre := updateStateFingerprint(p, mw, mgr, target.App, newName, ifaces)
			err := mgr.StagedVerified(target.App, v2, behavior, offers, us.Soak,
				verify, func(rp update.Report) {
					updRep, updDone = rp, true
					if rp.RolledBack {
						post := updateStateFingerprint(p, mw, mgr, target.App, newName, ifaces)
						if post != pre {
							violate(PropRollback,
								"update rollback state differs from pre-update:\n--- pre ---\n%s--- post ---\n%s",
								pre, post)
						}
					}
				})
			if err != nil {
				panic(fmt.Sprintf("fuzz: staged update: %v", err))
			}
		})
	}

	// Reconfig tier (property 6b: model rollback byte-identity under
	// injected install failure).
	var orc *reconfig.Orchestrator
	var sys *model.System
	var initialModel []byte
	if sp.Reconfig != nil {
		sys = model.NewSystem("fuzz-vehicle")
		for _, e := range sp.ECUs {
			ecu := model.ECU{Name: e.Name, CPUMHz: e.CPUMHz, MemoryKB: e.MemKB,
				HasMMU: true, OS: model.OSRTOS}
			sys.ECUs = append(sys.ECUs, &ecu)
		}
		for _, pub := range sp.Pubs {
			app := model.App{Name: pub.App, Kind: model.Deterministic,
				ASIL: model.ASILD, Period: pub.Period, WCET: pub.WCET,
				Deadline: pub.Period, MemoryKB: pub.MemKB, Version: 1}
			sys.Apps = append(sys.Apps, &app)
			sys.Placement[app.Name] = pub.Home
		}
		for _, n := range sp.Reconfig.NDAs {
			asil := model.QM
			if n.ASIL == "B" {
				asil = model.ASILB
			}
			spec := model.App{Name: n.Name, Kind: model.NonDeterministic,
				ASIL: asil, MemoryKB: n.MemKB}
			inst, err := p.Node(n.Home).Install(spec, platform.Behavior{})
			if err != nil {
				panic(fmt.Sprintf("fuzz: install %s: %v", n.Name, err))
			}
			if err := inst.Start(); err != nil {
				panic(err)
			}
			specCopy := spec
			sys.Apps = append(sys.Apps, &specCopy)
			sys.Placement[spec.Name] = n.Home
		}
		if sp.Reconfig.InjectInstallFail {
			// Ghost apps: physically resident, invisible to the model.
			// Admission then approves moves whose physical install must
			// fail — every recovery is forced down the rollback path.
			for _, e := range sp.ECUs {
				node := p.Node(e.Name)
				free := e.MemKB - node.Memory().CommittedKB()
				if free <= 0 {
					continue
				}
				inst, err := node.Install(model.App{Name: "ghost-" + e.Name,
					Kind: model.NonDeterministic, ASIL: model.QM, MemoryKB: free},
					platform.Behavior{})
				if err != nil {
					panic(fmt.Sprintf("fuzz: ghost install: %v", err))
				}
				if err := inst.Start(); err != nil {
					panic(err)
				}
			}
		}
		var err error
		initialModel, err = model.MarshalJSONSystem(sys)
		if err != nil {
			panic(err)
		}
		ctrl := admission.NewController(sys)
		orc = reconfig.New(p, ctrl, reconfig.Config{
			CheckPeriod:      2 * sim.Millisecond,
			SilenceThreshold: 25 * sim.Millisecond,
			ReplanDelay:      sim.Millisecond,
			SettleTimeout:    100 * sim.Millisecond,
			Rehome:           true,
		})
		orc.SetObs(o)
		ecuNames := make([]string, 0, len(sp.ECUs))
		for _, e := range sp.ECUs {
			ecuNames = append(ecuNames, e.Name)
		}
		if err := orc.Watch(ecuNames...); err != nil {
			panic(err)
		}
		orc.Start()
	}

	// Run to the post-horizon tail, then audit the closed accounts
	// (property 4) while everything is still wired.
	tq := sim.Time(sp.Horizon + runTail)
	if camp != nil {
		if q := camp.QuiesceAt().Add(50 * sim.Millisecond); q > tq {
			tq = q
		}
	}
	k.RunUntil(tq)

	if ms != nil {
		if !ms.Conserved() {
			violate(PropConservation,
				"mesh account open at tail: offered=%d served=%d shed=%d dead=%d outstanding=%d",
				ms.Offered, ms.Served, ms.Shed, ms.DeadLettered, ms.Outstanding())
		}
		if ms.ShedProtected != 0 {
			violate(PropConservation, "%d protected-criticality calls shed", ms.ShedProtected)
		}
	}

	// Teardown: stop supervision, apps, the babbler, and every endpoint,
	// then let the kernel drain. Anything still live afterwards is a
	// leaked timer (property 5).
	if orc != nil {
		orc.Stop()
	}
	if platformOn {
		for _, ecuName := range p.Nodes() {
			node := p.Node(ecuName)
			for _, app := range node.Apps() {
				node.App(app).Stop()
			}
		}
	}
	if babbler != nil {
		babbler.Stop()
	}
	for _, ref := range tickerRefs {
		ref.Cancel()
	}
	deadBefore := mw.DeadLetters
	for _, app := range mw.Endpoints() {
		mw.RemoveEndpoint(app)
	}
	k.RunUntil(tq.Add(quiesceSettle))

	leaked := k.QueueLen()
	if ms != nil && !ms.Conserved() {
		violate(PropQuiesce,
			"mesh account drifted across teardown: offered=%d served=%d shed=%d dead=%d outstanding=%d",
			ms.Offered, ms.Served, ms.Shed, ms.DeadLettered, ms.Outstanding())
	}
	if leaked != 0 {
		// Step the leaked events to timestamp them — the fire times
		// usually name the guilty subsystem. This runs after every other
		// audit and fingerprint input has been captured.
		var fired []string
		for i := 0; i < 8 && k.QueueLen() > 0; i++ {
			k.Step()
			fired = append(fired, fmt.Sprint(k.Now()))
		}
		violate(PropQuiesce, "%d kernel events still live %v after teardown (fire times: %s)",
			leaked, quiesceSettle, strings.Join(fired, ", "))
	}

	// Reconfig rollback audit (property 6b).
	var finalModel []byte
	if orc != nil {
		var err error
		finalModel, err = model.MarshalJSONSystem(sys)
		if err != nil {
			panic(err)
		}
		allRolledBack := true
		for i, rec := range orc.Recoveries {
			if rec.RolledBack {
				if len(rec.Moves)+len(rec.Sheds)+len(rec.Stranded) != 0 {
					violate(PropRollback,
						"rolled-back recovery %d (%s) kept %d moves / %d sheds / %d stranded",
						i, rec.ECU, len(rec.Moves), len(rec.Sheds), len(rec.Stranded))
				}
				continue
			}
			if len(rec.Moves)+len(rec.Sheds)+len(rec.Stranded) > 0 {
				allRolledBack = false
			}
		}
		if sp.Reconfig.InjectInstallFail {
			if allRolledBack && len(orc.Rebalances) == 0 &&
				!bytes.Equal(finalModel, initialModel) {
				violate(PropRollback,
					"model changed although every recovery rolled back:\n--- before ---\n%s\n--- after ---\n%s",
					initialModel, finalModel)
			}
		} else {
			for i, rec := range orc.Recoveries {
				if rec.RolledBack {
					violate(PropRollback,
						"recovery %d (%s) rolled back with no install failure injected: model/platform drift",
						i, rec.ECU)
				}
			}
		}
	}

	// Fingerprint: every application-visible outcome, rendered
	// deterministically. Kernel internals and obs state are excluded on
	// purpose — the same fingerprint must come out of the wheel backend,
	// the heap backend, and fully observed runs.
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz spec seed=%d v=%d horizon=%v\n", sp.Seed, sp.Version, sp.Horizon)
	for i, pub := range sp.Pubs {
		st := pubs[i]
		fmt.Fprintf(&b, "pub %s: published=%d delivered=%d aux=%d misses=%d bitmap=%x",
			pub.App, st.published, st.delivered, st.auxDelivered, st.misses,
			bitmapHash(st.seen))
		if st.rel != nil {
			fmt.Fprintf(&b, " gaps=%d missing=%d recovered=%d unrecoverable=%d",
				st.rel.Gaps, st.rel.Missing, st.rel.Recovered, st.rel.Unrecoverable)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "mw: dead=%d qosmiss=%d stale=%d denied=%d retry=%d/%d/%d seqgaps=%d rec=%d unrec=%d\n",
		mw.DeadLetters, mw.QoSDeadlineMisses, mw.StalePublishes, mw.DeniedBindings,
		mw.RetryAttempts, mw.RetryRecovered, mw.RetryExhausted,
		mw.SeqGaps, mw.GapEventsRecovered, mw.GapEventsUnrecoverable)
	fmt.Fprintf(&b, "teardown dead-letters=%d\n", mw.DeadLetters-deadBefore)
	for _, svc := range mw.Services() {
		prov, ver, _ := mw.Find(svc)
		fmt.Fprintf(&b, "svc %s provider=%s v%d\n", svc, prov, ver)
	}
	fmt.Fprintf(&b, "attach: %s\n", strings.Join(mw.AttachOrder(), ","))
	for i, nf := range nets {
		fmt.Fprintf(&b, "net %d: dropped=%d corrupted=%d corruptdrop=%d blocked=%d babble=%d passed=%d\n",
			i, nf.FramesDropped, nf.FramesCorrupted, nf.CorruptDropped,
			nf.FramesBlocked, nf.BabbleFrames, nf.Passed)
	}
	if ms != nil {
		fmt.Fprintf(&b, "mesh: offered=%d served=%d shed=%d dead=%d prot=%d timeouts=%d retries=%d reroutes=%d trips=%d conserved=%v\n",
			ms.Offered, ms.Served, ms.Shed, ms.DeadLettered, ms.ShedProtected,
			ms.Timeouts, ms.Retries, ms.Reroutes, ms.BreakerTrips, ms.Conserved())
		for _, svc := range sp.Mesh.Services {
			for _, stat := range ms.InstanceStats(svc.Name) {
				fmt.Fprintf(&b, "inst %s@%s: dispatched=%d pending=%d\n",
					stat.App, stat.ECU, stat.Dispatched, stat.Pending)
			}
		}
	}
	if camp != nil {
		var lh = fnv.New64a()
		for _, r := range camp.Log {
			lh.Write([]byte(r.String()))
			lh.Write([]byte{'\n'})
		}
		fmt.Fprintf(&b, "campaign: injections=%d skipped=%d log=%d loghash=%x\n",
			camp.Injections(), camp.Skipped, len(camp.Log), lh.Sum64())
	}
	if sp.Update != nil {
		fmt.Fprintf(&b, "update: done=%v rolledback=%v from=%d to=%d synced=%d stamps=%d active=%s\n",
			updDone, updRep.RolledBack, updRep.From, updRep.To,
			updRep.SyncedKeys, len(updRep.Stamps), "")
	}
	if orc != nil {
		rolled, shed, stranded := 0, 0, 0
		for _, rec := range orc.Recoveries {
			if rec.RolledBack {
				rolled++
			}
			shed += len(rec.Sheds)
			stranded += len(rec.Stranded)
		}
		fmt.Fprintf(&b, "reconfig: recoveries=%d rolledback=%d shed=%d stranded=%d rebalances=%d modelhash=%x\n",
			len(orc.Recoveries), rolled, shed, stranded, len(orc.Rebalances),
			byteHash(finalModel))
	}
	fmt.Fprintf(&b, "quiesce: leaked=%d\n", leaked)
	res.fingerprint = b.String()

	// Observed runs also dump their artifacts (property 3 compares two
	// observed runs of the same seed byte-for-byte).
	if o != nil {
		o.SnapshotKernel(k)
		res.trace = obs.AppendChromeTrace(nil, []obs.Scope{{Name: "fuzz", Trace: o.Tracer()}})
		var mb bytes.Buffer
		if err := o.Metrics().WriteText(&mb); err != nil {
			panic(err)
		}
		res.metrics = mb.Bytes()
	}
	return res
}

// updateStateFingerprint renders the update-scoped externally visible
// state: the logical app and its staged twin, the host's committed
// memory, the persistence store, endpoint registry, service discovery
// for the campaign's interfaces, and the active-version map. Rollback
// must leave this byte-identical to the pre-update capture.
func updateStateFingerprint(p *platform.Platform, mw *soa.Middleware,
	mgr *update.Manager, logical, newName string, ifaces []string) string {

	var b strings.Builder
	var host *platform.Node
	for _, name := range []string{logical, newName} {
		inst, node := p.FindApp(name)
		if inst == nil {
			fmt.Fprintf(&b, "app %s: absent\n", name)
			continue
		}
		if name == logical {
			host = node
		}
		fmt.Fprintf(&b, "app %s: v%d state=%v mem=%d\n",
			name, inst.Spec.Version, inst.State, inst.Spec.MemoryKB)
	}
	if host != nil {
		fmt.Fprintf(&b, "committed=%dKB\n", host.Memory().CommittedKB())
		for _, app := range []string{logical, newName} {
			for _, key := range host.Store().Keys(app) {
				v, _ := host.Store().Get(app, key)
				fmt.Fprintf(&b, "store %s/%s=%q\n", app, key, v)
			}
		}
	}
	for _, app := range []string{logical, newName} {
		fmt.Fprintf(&b, "endpoint %s: %v\n", app, mw.EndpointOf(app) != nil)
	}
	for _, iface := range ifaces {
		prov, ver, err := mw.Find(iface)
		if err != nil {
			fmt.Fprintf(&b, "iface %s: absent\n", iface)
			continue
		}
		fmt.Fprintf(&b, "iface %s: provider=%s v%d\n", iface, prov, ver)
	}
	fmt.Fprintf(&b, "active=%s\n", mgr.InstanceName(logical))
	return b.String()
}

// bitmapHash hashes a delivery bitmap.
func bitmapHash(seen []bool) uint64 {
	h := fnv.New64a()
	for _, s := range seen {
		if s {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// byteHash hashes an artifact.
func byteHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
