// Package reconfig closes the uncertainty-management loop the paper's
// Section 5 leaves open: failure *detection* (runtime monitoring,
// Section 3.4) and failure *mitigation* (dynamic reconfiguration,
// Section 3.3) exist as separate mechanisms; this package connects them
// into a self-healing orchestrator. It subscribes to the platform's
// failure signals — its own ECU-silence supervision over completion
// streams, monitor Detection uplinks, alive-supervision violations, and
// explicit notifications — and answers each declared ECU failure with a
// transactional recovery plan:
//
//  1. snapshot the admission controller's system model,
//  2. re-place every application lost with the ECU onto surviving ECUs
//     through the same compositional admission test a fresh install
//     faces (deterministic apps first, highest criticality first),
//  3. when capacity is insufficient, shed non-deterministic apps of
//     strictly lower criticality from the target (lowest ASIL first)
//     and escalate the degradation-mode cascade,
//  4. migrate the moved apps' SOA endpoints and transfer their runtime
//     supervision (monitor watches, alive bounds) to the new node,
//  5. on any physical failure, roll the model back to the snapshot and
//     undo the partial installs — the vehicle is never left half-moved.
//
// Apps that fit nowhere are recorded as stranded and stay modeled at
// their failed placement, so a later repair revives them. When a failed
// ECU returns (reboot, repair), the orchestrator re-balances: moved
// apps are optionally re-homed, stranded apps are retried, shed apps
// are restored, and the mode cascade is relaxed once the fleet is
// whole again.
//
// Everything runs inside the simulation kernel — no wall clock, no
// goroutines — so recovery timelines are bit-reproducible per seed, and
// every phase (detect → plan → migrate → steady) is observable through
// obs counters, histograms and trace spans without perturbing results.
package reconfig

import (
	"fmt"
	"sort"

	"dynaplat/internal/admission"
	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/safety/monitor"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// Config tunes detection and recovery.
type Config struct {
	// CheckPeriod is the supervision tick: silence checks and repair
	// polling run at this cadence.
	CheckPeriod sim.Duration
	// SilenceThreshold is the minimum completion silence that declares a
	// watched ECU failed. Per ECU the effective threshold is
	// max(SilenceThreshold, 2·maxDAPeriod+CheckPeriod) so slow periodic
	// apps are not misread as dead.
	SilenceThreshold sim.Duration
	// ReplanDelay models the planning/distribution cost between failure
	// declaration and the recovery transaction.
	ReplanDelay sim.Duration
	// SettleTimeout bounds the wait for the first completions of moved
	// deterministic apps before a recovery is forced steady.
	SettleTimeout sim.Duration
	// Rehome moves recovered apps back to their original ECU when it
	// returns (false leaves them where the recovery placed them).
	Rehome bool
}

// DefaultConfig returns the standard tuning: 1 ms ticks, 20 ms silence
// floor, 2 ms replanning, 500 ms settle guard, re-homing enabled.
func DefaultConfig() Config {
	return Config{
		CheckPeriod:      sim.Millisecond,
		SilenceThreshold: 20 * sim.Millisecond,
		ReplanDelay:      2 * sim.Millisecond,
		SettleTimeout:    500 * sim.Millisecond,
		Rehome:           true,
	}
}

// Move records one application relocation.
type Move struct {
	App      string
	From, To string
	Kind     model.AppKind
	ASIL     model.ASIL
}

// Shed records one non-deterministic app stopped to free capacity for a
// higher-criticality placement. The private spec/behavior capture lets
// a re-balance restore it.
type Shed struct {
	App      string
	ECU      string
	ASIL     model.ASIL
	Restored bool

	spec     model.App
	ifaces   []model.Interface
	behavior platform.Behavior
	// alive-supervision bounds held before the shed, restored with it.
	aliveSup           bool
	aliveMin, aliveMax int
}

// Recovery is the record of one detect→plan→migrate→steady transaction.
type Recovery struct {
	ECU    string
	Reason string

	DetectedAt sim.Time
	PlannedAt  sim.Time
	SteadyAt   sim.Time
	// Steady latches once every moved deterministic app has completed
	// its first activation on its new ECU (or the settle guard fired).
	Steady bool
	// Aborted marks a failure repaired before the replan delay elapsed:
	// no recovery was needed.
	Aborted bool
	// RolledBack marks a recovery whose physical execution failed: the
	// model and the nodes were restored to the pre-recovery state.
	RolledBack bool

	Moves    []Move
	Sheds    []*Shed
	Stranded []string

	pending   map[string]string // moved DA -> destination awaiting first completion
	settleRef sim.EventRef
}

// Duration returns detect→steady (zero until steady).
func (r *Recovery) Duration() sim.Duration {
	if !r.Steady {
		return 0
	}
	return r.SteadyAt.Sub(r.DetectedAt)
}

// Rebalance records the reaction to one repaired ECU.
type Rebalance struct {
	ECU string
	At  sim.Time
	// Revived lists stranded apps the node's own restart brought back.
	Revived []string
	// Placed lists stranded apps from other, still-failed ECUs that fit
	// onto the freed capacity.
	Placed []Move
	// Rehomed lists apps moved back to the repaired ECU.
	Rehomed []Move
	// Restored lists shed apps reinstalled.
	Restored []string
}

// Signal is one failure indication received from an attached source.
type Signal struct {
	At     sim.Time
	ECU    string
	Source string // "silence", "monitor", "alive", "notify"
	Detail string
}

// watchState tracks one supervised ECU's completion stream.
type watchState struct {
	lastSeen sim.Time
}

// failureState tracks one declared-failed ECU.
type failureState struct {
	declaredAt sim.Time
	rec        *Recovery
	planRef    sim.EventRef
	executed   bool
	// sawDown latches once the node was actually observed unhealthy;
	// repair polling waits for the down→up transition so an externally
	// notified failure on a healthy node is not instantly "repaired".
	sawDown bool
}

// aliveState correlates one supervisor's violations within a window.
type aliveState struct {
	s     *monitor.AliveSupervision
	at    sim.Time
	count int
}

type strandedApp struct {
	App  string
	Home string
}

// Orchestrator is the vehicle-level self-healing controller.
type Orchestrator struct {
	k    *sim.Kernel
	p    *platform.Platform
	ctrl *admission.Controller
	cfg  Config
	mw   *soa.Middleware

	modes  *platform.ModeManager
	mons   map[string]*monitor.Monitor
	alives map[string]*aliveState

	watched []string // sorted supervision order
	watch   map[string]*watchState
	hooked  map[string]bool
	ticker  *sim.Ticker

	failedNames []string // sorted declared-failed ECUs
	failed      map[string]*failureState

	sheds       []*Shed
	stranded    []strandedApp
	escalations int

	obs *obs.Obs

	// Recoveries, Rebalances and Signals are the orchestrator's public
	// records, in occurrence order.
	Recoveries []*Recovery
	Rebalances []*Rebalance
	Signals    []Signal
}

// New creates an orchestrator over the platform and the admission
// controller that owns the vehicle's system model. Zero Config fields
// take their defaults; the platform's middleware (possibly nil) is used
// for endpoint migration.
func New(p *platform.Platform, ctrl *admission.Controller, cfg Config) *Orchestrator {
	def := DefaultConfig()
	if cfg.CheckPeriod <= 0 {
		cfg.CheckPeriod = def.CheckPeriod
	}
	if cfg.SilenceThreshold <= 0 {
		cfg.SilenceThreshold = def.SilenceThreshold
	}
	if cfg.ReplanDelay < 0 {
		cfg.ReplanDelay = def.ReplanDelay
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = def.SettleTimeout
	}
	return &Orchestrator{
		k:      p.Kernel(),
		p:      p,
		ctrl:   ctrl,
		cfg:    cfg,
		mw:     p.Middleware(),
		mons:   map[string]*monitor.Monitor{},
		alives: map[string]*aliveState{},
		watch:  map[string]*watchState{},
		hooked: map[string]bool{},
		failed: map[string]*failureState{},
	}
}

// SetObs installs the observability plane (nil keeps the orchestrator
// silent). Observation never changes decisions or timing.
func (o *Orchestrator) SetObs(ob *obs.Obs) { o.obs = ob }

// AttachModes connects the degradation-mode manager: recoveries that
// shed or strand apps escalate one mode; a re-balance that makes the
// fleet whole again relaxes every escalation.
func (o *Orchestrator) AttachModes(m *platform.ModeManager) { o.modes = m }

// AttachMonitor chains onto a node monitor's uplink: heartbeat-lost
// detections declare the ECU failed, every detection is recorded as a
// signal. The previously installed uplink keeps firing.
func (o *Orchestrator) AttachMonitor(ecu string, m *monitor.Monitor) {
	o.mons[ecu] = m
	prev := m.Uplink()
	m.SetUplink(func(d monitor.Detection) {
		if prev != nil {
			prev(d)
		}
		o.onDetection(ecu, d)
	})
}

// AttachAlive chains onto an alive supervisor's violation stream: when
// every supervised app on the node violates in the same check window,
// the node — not the apps — is silent, and the ECU is declared failed.
func (o *Orchestrator) AttachAlive(ecu string, s *monitor.AliveSupervision) {
	as := &aliveState{s: s}
	o.alives[ecu] = as
	prev := s.OnViolation
	s.OnViolation = func(v monitor.AliveViolation) {
		if prev != nil {
			prev(v)
		}
		o.onAliveViolation(ecu, as, v)
	}
}

// Watch registers ECUs for completion-silence supervision. Every
// watched ECU must have a platform node.
func (o *Orchestrator) Watch(ecus ...string) error {
	for _, ecu := range ecus {
		if o.p.Node(ecu) == nil {
			return fmt.Errorf("reconfig: no node on ECU %s", ecu)
		}
		if _, dup := o.watch[ecu]; dup {
			continue
		}
		o.watch[ecu] = &watchState{lastSeen: o.k.Now()}
		o.watched = append(o.watched, ecu)
		o.hookNode(ecu)
	}
	sort.Strings(o.watched)
	return nil
}

// Start arms the supervision tick. Start is idempotent.
func (o *Orchestrator) Start() {
	if o.ticker != nil {
		return
	}
	o.ticker = o.k.Every(o.k.Now().Add(o.cfg.CheckPeriod), o.cfg.CheckPeriod, o.tick)
}

// Stop halts supervision (pending recoveries still settle). Idempotent;
// Start re-arms.
func (o *Orchestrator) Stop() {
	if o.ticker == nil {
		return
	}
	o.ticker.Stop()
	o.ticker = nil
}

// Failed returns the sorted names of currently declared-failed ECUs.
func (o *Orchestrator) Failed() []string {
	return append([]string(nil), o.failedNames...)
}

// ShedCount returns how many sheds are outstanding (not yet restored).
func (o *Orchestrator) ShedCount() int {
	n := 0
	for _, sh := range o.sheds {
		if !sh.Restored {
			n++
		}
	}
	return n
}

// StrandedCount returns how many apps currently fit nowhere.
func (o *Orchestrator) StrandedCount() int { return len(o.stranded) }

// NotifyFailure declares an ECU failed from an external source (a
// gateway loss report, a test). Unknown ECUs and duplicates are no-ops.
func (o *Orchestrator) NotifyFailure(ecu, reason string) {
	if o.p.Node(ecu) == nil {
		return
	}
	o.declareFailure(ecu, "notify", reason)
}

// hookNode installs the orchestrator's completion listener on a node
// exactly once (silence supervision + steady detection share it).
func (o *Orchestrator) hookNode(ecu string) {
	if o.hooked[ecu] {
		return
	}
	o.hooked[ecu] = true
	node := o.p.Node(ecu)
	node.OnComplete(func(c platform.Completion) { o.onComplete(ecu, c) })
}

// onComplete feeds silence supervision and steady detection.
func (o *Orchestrator) onComplete(ecu string, c platform.Completion) {
	if w := o.watch[ecu]; w != nil {
		w.lastSeen = o.k.Now()
	}
	for _, rec := range o.Recoveries {
		if rec.Steady || len(rec.pending) == 0 {
			continue
		}
		if dst, ok := rec.pending[c.App]; ok && dst == ecu {
			delete(rec.pending, c.App)
			if len(rec.pending) == 0 {
				o.steady(rec, "first completions observed")
			}
		}
	}
}

// onDetection handles a chained monitor uplink.
func (o *Orchestrator) onDetection(ecu string, d monitor.Detection) {
	o.signal(ecu, "monitor", fmt.Sprintf("%v: %s", d.Kind, d.App))
	if d.Kind == platform.FaultHeartbeatLost {
		o.declareFailure(ecu, "monitor", fmt.Sprintf("heartbeat lost: %s", d.App))
	}
}

// onAliveViolation correlates violations within one check instant: all
// supervised apps silent together means the node is gone.
func (o *Orchestrator) onAliveViolation(ecu string, as *aliveState, v monitor.AliveViolation) {
	o.signal(ecu, "alive", fmt.Sprintf("%s count %d outside [%d,%d]", v.App, v.Count, v.Min, v.Max))
	if v.At != as.at {
		as.at, as.count = v.At, 0
	}
	as.count++
	if n := len(as.s.Supervised()); n > 0 && as.count >= n {
		o.declareFailure(ecu, "alive", fmt.Sprintf("all %d supervised apps silent", n))
	}
}

// tick polls repairs and checks completion silence, in sorted ECU order.
func (o *Orchestrator) tick() {
	// Repair polling first, so a repaired ECU is re-balanced before the
	// silence check could re-flag it. Repair means the down→up health
	// transition was observed, not merely "the node looks up".
	for _, ecu := range append([]string(nil), o.failedNames...) {
		fs := o.failed[ecu]
		if fs == nil {
			continue
		}
		node := o.p.Node(ecu)
		if node == nil {
			continue
		}
		switch {
		case node.Health() != platform.HealthUp:
			fs.sawDown = true
		case fs.sawDown:
			o.onRepair(ecu, fs)
		}
	}
	now := o.k.Now()
	for _, ecu := range o.watched {
		if _, isFailed := o.failed[ecu]; isFailed {
			continue
		}
		thr := o.silenceThreshold(ecu)
		if thr <= 0 {
			continue // nothing periodic to hear from
		}
		if node := o.p.Node(ecu); node == nil {
			continue
		}
		if silent := now.Sub(o.watch[ecu].lastSeen); silent >= thr {
			o.declareFailure(ecu, "silence", fmt.Sprintf("no completions for %v", silent))
		}
	}
}

// silenceThreshold derives the per-ECU silence bound from the modeled
// deterministic apps placed there (0 when none: NDAs emit no periodic
// completions, so silence proves nothing).
func (o *Orchestrator) silenceThreshold(ecu string) sim.Duration {
	var maxPeriod sim.Duration
	sys := o.ctrl.System()
	for _, a := range sys.Apps {
		if a.Kind == model.Deterministic && a.Period > maxPeriod && sys.Placement[a.Name] == ecu {
			maxPeriod = a.Period
		}
	}
	if maxPeriod == 0 {
		return 0
	}
	thr := 2*maxPeriod + o.cfg.CheckPeriod
	if thr < o.cfg.SilenceThreshold {
		thr = o.cfg.SilenceThreshold
	}
	return thr
}

// declareFailure latches an ECU failure and schedules its recovery.
func (o *Orchestrator) declareFailure(ecu, source, detail string) {
	if _, dup := o.failed[ecu]; dup {
		return
	}
	now := o.k.Now()
	o.signal(ecu, source, detail)
	rec := &Recovery{ECU: ecu, Reason: source + ": " + detail, DetectedAt: now}
	fs := &failureState{declaredAt: now, rec: rec}
	if node := o.p.Node(ecu); node != nil && node.Health() != platform.HealthUp {
		fs.sawDown = true
	}
	o.failed[ecu] = fs
	o.failedNames = append(o.failedNames, ecu)
	sort.Strings(o.failedNames)
	o.Recoveries = append(o.Recoveries, rec)
	o.count("reconfig_failures", ecu)
	o.instant("failure-declared", ecu, rec.Reason)
	o.k.Trace("reconfig", "ECU %s declared failed (%s)", ecu, rec.Reason)
	fs.planRef = o.k.After(o.cfg.ReplanDelay, func() { o.recover(fs) })
}

// steady finishes a recovery and emits its detect→steady span.
func (o *Orchestrator) steady(rec *Recovery, how string) {
	if rec.Steady {
		return
	}
	rec.Steady = true
	rec.SteadyAt = o.k.Now()
	rec.settleRef.Cancel()
	rec.pending = nil
	d := rec.SteadyAt.Sub(rec.DetectedAt)
	o.count("reconfig_recoveries", rec.ECU)
	if o.obs != nil {
		o.obs.Metrics().Histogram("reconfig_detect_to_steady", o.labels(rec.ECU)).Observe(d)
		o.obs.Tracer().Complete("reconfig", "recover "+rec.ECU, "reconfig", rec.DetectedAt, d,
			fmt.Sprintf("moves=%d sheds=%d stranded=%d (%s)",
				len(rec.Moves), len(rec.Sheds), len(rec.Stranded), how))
	}
	o.k.Trace("reconfig", "ECU %s recovery steady after %v (%s)", rec.ECU, d, how)
}

func (o *Orchestrator) signal(ecu, source, detail string) {
	o.Signals = append(o.Signals, Signal{At: o.k.Now(), ECU: ecu, Source: source, Detail: detail})
	o.count("reconfig_signals", ecu)
}

func (o *Orchestrator) labels(ecu string) obs.Labels {
	return obs.Labels{Layer: "reconfig", ECU: ecu}
}

func (o *Orchestrator) count(name, ecu string) {
	if o.obs == nil {
		return
	}
	o.obs.Metrics().Counter(name, o.labels(ecu)).Inc()
}

func (o *Orchestrator) instant(name, ecu, detail string) {
	if o.obs == nil {
		return
	}
	o.obs.Tracer().Instant("reconfig", name, "reconfig", ecu+": "+detail)
}
