// Package tsn simulates switched Ethernet with Time-Sensitive Networking
// shaping: a star-topology switch whose egress ports run 802.1Qbv
// time-aware gates over eight strict-priority queues, with guard-banding
// (a frame only starts if it completes before its gate closes).
//
// This is the upcoming mixed-criticality Ethernet scheme the paper's
// Section 5.3 describes: deterministic traffic rides time-triggered gate
// windows; non-deterministic traffic uses priority queues in the remaining
// windows and cannot interfere.
package tsn

import (
	"fmt"
	"slices"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// NumQueues is the 802.1Q priority-queue count per egress port.
const NumQueues = 8

// Queue assignment for the technology-independent traffic classes.
const (
	QueueControl  = 7
	QueuePriority = 5
	QueueBulk     = 1
)

// QueueFor maps a traffic class to its priority queue.
func QueueFor(c network.Class) int {
	switch c {
	case network.ClassControl:
		return QueueControl
	case network.ClassPriority:
		return QueuePriority
	default:
		return QueueBulk
	}
}

// GateEntry is one interval of a gate control list: the set of queues
// whose gates are open (bitmask, bit q = queue q) for Dur.
type GateEntry struct {
	OpenMask uint8
	Dur      sim.Duration
}

// AllOpen is the mask with every gate open.
const AllOpen uint8 = 0xFF

// Config parameterizes a TSN network.
type Config struct {
	Name string
	// BitsPerSecond is the line rate of every link (default 100 Mbps).
	BitsPerSecond int64
	// MaxFrameBytes is the MTU payload; larger sends panic (the SOA
	// layer segments). Default 1500.
	MaxFrameBytes int
	// FrameOverheadBytes models Ethernet header+FCS+IFG (default 42).
	FrameOverheadBytes int
	// ProcDelay is the switch processing/propagation delay per hop.
	ProcDelay sim.Duration
	// GCL is the cyclic gate control list applied at every egress port.
	// Empty means all gates always open (plain strict priority).
	GCL []GateEntry
}

// DefaultConfig returns a 100 Mbps network with no time gates.
func DefaultConfig(name string) Config {
	return Config{
		Name:               name,
		BitsPerSecond:      100_000_000,
		MaxFrameBytes:      1500,
		FrameOverheadBytes: 42,
		ProcDelay:          2 * sim.Microsecond,
	}
}

// ControlGCL builds a canonical two-window GCL: a window of ctrlWin where
// only the control gate is open, then a window of restWin where every
// other gate is open. Ablation A4 sweeps these.
func ControlGCL(ctrlWin, restWin sim.Duration) []GateEntry {
	return []GateEntry{
		{OpenMask: 1 << QueueControl, Dur: ctrlWin},
		{OpenMask: AllOpen &^ (1 << QueueControl), Dur: restWin},
	}
}

// Network is a simulated single-switch TSN network.
type Network struct {
	cfg Config
	k   *sim.Kernel
	rx  map[string]network.Receiver
	// uplinks[station] serializes station→switch; egress[station]
	// serializes switch→station under the GCL.
	uplinks map[string]*link
	egress  map[string]*link
	// stations is the sorted attached-station list for broadcast
	// fan-out, replaced (never edited in place) when a new name attaches.
	stations []string

	// Stats
	Forwarded int64
	// LatencyByClass samples end-to-end latency per traffic class.
	latency map[network.Class]*sim.Sample

	// cbsTemplates are applied to egress ports created after EnableCBS.
	cbsTemplates []CBSConfig

	tap network.Tap
}

// New creates a TSN network on the kernel.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.BitsPerSecond <= 0 {
		cfg.BitsPerSecond = 100_000_000
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = 1500
	}
	if cfg.FrameOverheadBytes < 0 {
		cfg.FrameOverheadBytes = 0
	}
	var cycle sim.Duration
	for _, e := range cfg.GCL {
		if e.Dur <= 0 {
			panic("tsn: GCL entry with non-positive duration")
		}
		cycle += e.Dur
	}
	return &Network{
		cfg:     cfg,
		k:       k,
		rx:      map[string]network.Receiver{},
		uplinks: map[string]*link{},
		egress:  map[string]*link{},
		latency: map[network.Class]*sim.Sample{},
	}
}

// Name implements network.Network.
func (n *Network) Name() string { return n.cfg.Name }

// SetTap installs an observability tap; nil disables it. The untapped
// path costs one nil check per frame event.
func (n *Network) SetTap(t network.Tap) { n.tap = t }

// Attach implements network.Network.
func (n *Network) Attach(station string, rx network.Receiver) {
	if _, ok := n.rx[station]; !ok {
		n.stations = network.InsertSorted(n.stations, station)
	}
	n.rx[station] = rx
	// Uplinks are ungated FIFO; egress ports run the GCL and shapers.
	n.uplinks[station] = newLink(n, nil)
	eg := newLink(n, n.cfg.GCL)
	for _, cfg := range n.cbsTemplates {
		eg.enableCBS(cfg)
	}
	n.egress[station] = eg
}

// Send implements network.Network.
func (n *Network) Send(msg network.Message) {
	up, ok := n.uplinks[msg.Src]
	if !ok {
		panic(fmt.Sprintf("tsn: source %q not attached to %s", msg.Src, n.cfg.Name))
	}
	if msg.Bytes > n.cfg.MaxFrameBytes {
		panic(fmt.Sprintf("tsn: frame %dB exceeds MTU %dB", msg.Bytes, n.cfg.MaxFrameBytes))
	}
	if msg.Bytes < 0 {
		panic("tsn: negative payload size")
	}
	f := &frame{msg: msg, enqueued: n.k.Now()}
	if n.tap != nil {
		f.span = n.tap.FrameEnqueued(n.cfg.Name, &f.msg, f.enqueued)
	}
	up.enqueue(f, func() {
		// Arrived at switch: fan out to egress port(s).
		n.k.After(n.cfg.ProcDelay, func() { n.forward(f) })
	})
}

func (n *Network) forward(f *frame) {
	if f.msg.Dst != "" {
		if eg, ok := n.egress[f.msg.Dst]; ok {
			g := *f // copy so per-port completion doesn't alias
			eg.enqueue(&g, func() { n.deliver(&g) })
		} else if n.tap != nil {
			n.tap.FrameLost(n.cfg.Name, f.span, &f.msg, "no-receiver", n.k.Now())
		}
		return
	}
	for _, s := range n.stations {
		if s == f.msg.Src {
			continue
		}
		g := *f
		eg := n.egress[s]
		dst := s
		eg.enqueue(&g, func() {
			g.msg.Dst = dst
			n.deliver(&g)
		})
	}
}

func (n *Network) deliver(f *frame) {
	n.Forwarded++
	d := network.Delivery{Msg: f.msg, Enqueued: f.enqueued, Delivered: n.k.Now()}
	s := n.latency[f.msg.Class]
	if s == nil {
		s = &sim.Sample{}
		n.latency[f.msg.Class] = s
	}
	s.AddDuration(d.Latency())
	if rx, ok := n.rx[f.msg.Dst]; ok && f.msg.Dst != "" {
		if n.tap != nil {
			n.tap.FrameDelivered(n.cfg.Name, f.span, &f.msg, f.msg.Dst, n.k.Now())
		}
		rx(d)
	} else if n.tap != nil {
		n.tap.FrameLost(n.cfg.Name, f.span, &f.msg, "no-receiver", n.k.Now())
	}
}

// Latency returns the recorded latency sample for a class (may be empty).
func (n *Network) Latency(c network.Class) *sim.Sample {
	if s := n.latency[c]; s != nil {
		return s
	}
	return &sim.Sample{}
}

// txTime returns wire time for a payload including Ethernet overhead.
func (n *Network) txTime(bytes int) sim.Duration {
	return network.TxTime(bytes+n.cfg.FrameOverheadBytes, n.cfg.BitsPerSecond)
}

type frame struct {
	msg      network.Message
	enqueued sim.Time
	span     uint64 // observability span handle; copies inherit it
	done     func()
}

// link is one serialized output (uplink or gated egress port).
type link struct {
	n      *Network
	gcl    []GateEntry
	cycle  sim.Duration
	queues [NumQueues][]*frame
	busy   bool
	retry  sim.EventRef
	// cbs holds per-queue credit-based shaper state (see cbs.go).
	cbs map[int]*cbsState
}

func newLink(n *Network, gcl []GateEntry) *link {
	l := &link{n: n, gcl: gcl}
	for _, e := range gcl {
		l.cycle += e.Dur
	}
	return l
}

func (l *link) enqueue(f *frame, done func()) {
	f.done = done
	q := QueueFor(f.msg.Class)
	l.queues[q] = append(l.queues[q], f)
	l.trySend()
}

// gateState reports whether queue q's gate is open at t and when the
// state next changes (zero Time means never — the state is constant).
func (l *link) gateState(q int, t sim.Time) (open bool, next sim.Time) {
	if len(l.gcl) == 0 {
		return true, 0
	}
	off := sim.Duration(t) % l.cycle
	// Locate the entry containing off.
	var acc sim.Duration
	idx := 0
	for i, e := range l.gcl {
		if off < acc+e.Dur {
			idx = i
			break
		}
		acc += e.Dur
	}
	bit := uint8(1) << q
	cur := l.gcl[idx].OpenMask&bit != 0
	// Walk forward to find the next flip, at most one full cycle.
	boundary := acc + l.gcl[idx].Dur // offset of end of current entry
	for i := 1; i <= len(l.gcl); i++ {
		e := l.gcl[(idx+i)%len(l.gcl)]
		if (e.OpenMask&bit != 0) != cur {
			return cur, t.Add(boundary - off)
		}
		boundary += e.Dur
	}
	return cur, 0 // constant for this queue
}

// trySend starts the best eligible frame, or arms a retry at the next
// gate change if something is pending but blocked.
func (l *link) trySend() {
	if l.busy {
		return
	}
	now := l.n.k.Now()
	var wake sim.Time
	for q := NumQueues - 1; q >= 0; q-- {
		if len(l.queues[q]) == 0 {
			continue
		}
		open, next := l.gateState(q, now)
		if !open {
			if next != 0 && (wake == 0 || next < wake) {
				wake = next
			}
			continue
		}
		// Credit-based shaping: a shaped queue in credit deficit waits.
		eligible, cbsWake := l.cbsEligible(q, now)
		if !eligible {
			if cbsWake != 0 && (wake == 0 || cbsWake < wake) {
				wake = cbsWake
			}
			continue
		}
		f := l.queues[q][0]
		tx := l.n.txTime(f.msg.Bytes)
		// Guard band: the frame must complete before the gate closes.
		if next != 0 && now.Add(tx) > next {
			if wake == 0 || next < wake {
				wake = next
			}
			continue
		}
		// Shift rather than reslice so the queue keeps its capacity.
		l.queues[q] = slices.Delete(l.queues[q], 0, 1)
		l.cbsCharge(q, tx, l.n.cfg.BitsPerSecond)
		if l.n.tap != nil {
			l.n.tap.FrameTxStart(l.n.cfg.Name, f.span, now)
		}
		l.busy = true
		l.n.k.After(tx, func() {
			l.busy = false
			f.done()
			l.trySend()
		})
		return
	}
	if wake != 0 {
		if l.retry.Pending() {
			l.retry.Cancel()
		}
		ref := l.n.k.AtPriority(wake, sim.PriorityClock, func() { l.trySend() })
		l.retry = ref
	}
}
