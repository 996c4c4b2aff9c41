// Package can simulates a Controller Area Network bus with bitwise
// priority arbitration and standard-frame timing, including worst-case bit
// stuffing. It implements network.Network.
//
// CAN is the paper's example of a legacy signal-oriented communication
// system whose priority arbitration provides (only) per-frame isolation:
// a high-priority frame waits at most one maximal frame time behind a
// lower-priority transmission already on the wire.
package can

import (
	"fmt"
	"slices"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// MaxPayload is the classic CAN payload limit.
const MaxPayload = 8

// Config parameterizes a bus.
type Config struct {
	Name string
	// BitsPerSecond is the bus bit rate (e.g. 500_000).
	BitsPerSecond int64
	// WorstCaseStuffing, when true, adds the worst-case stuff-bit count
	// to every frame; otherwise frames carry no stuff bits. Worst case is
	// the correct choice for schedulability reasoning.
	WorstCaseStuffing bool
	// FrameLossRate injects bus errors: each frame is independently lost
	// (error frame, no delivery) with this probability. Lost frames still
	// occupy the bus for their transmission time. Requires a kernel RNG.
	FrameLossRate float64
}

// Bus is a simulated CAN bus.
type Bus struct {
	cfg     Config
	k       *sim.Kernel
	rx      map[string]network.Receiver
	pending []*queued // waiting for arbitration, any station
	busy    bool
	seq     uint64
	fd      bool
	dataBps int64

	// stations is the sorted attached-station list for broadcast
	// delivery. Attach of a new name replaces it with a fresh slice and
	// never edits it in place, so a delivery loop keeps the list it
	// started with even if a receiver attaches a station mid-loop.
	stations []string

	// Stats
	FramesSent   int64
	BitsSent     int64
	BusyTime     sim.Duration
	ArbitrationQ sim.Sample // queueing delay before winning arbitration
	// FramesLost counts frames destroyed by injected bus errors.
	FramesLost int64

	rng *sim.RNG
	tap network.Tap
}

type queued struct {
	msg      network.Message
	enqueued sim.Time
	seq      uint64
	span     uint64
}

// New creates a bus on the kernel.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.BitsPerSecond <= 0 {
		cfg.BitsPerSecond = 500_000
	}
	if cfg.FrameLossRate < 0 || cfg.FrameLossRate >= 1 {
		cfg.FrameLossRate = 0
	}
	b := &Bus{cfg: cfg, k: k, rx: map[string]network.Receiver{}}
	if cfg.FrameLossRate > 0 {
		b.rng = k.RNG().Split()
	}
	return b
}

// Name implements network.Network.
func (b *Bus) Name() string { return b.cfg.Name }

// SetTap installs an observability tap; nil disables it. The untapped
// path costs one nil check per frame event.
func (b *Bus) SetTap(t network.Tap) { b.tap = t }

// Attach implements network.Network.
func (b *Bus) Attach(station string, rx network.Receiver) {
	if _, ok := b.rx[station]; !ok {
		b.stations = network.InsertSorted(b.stations, station)
	}
	b.rx[station] = rx
}

// Send implements network.Network. Messages longer than MaxPayload are
// rejected with a panic: callers must segment (the SOA layer does).
func (b *Bus) Send(msg network.Message) {
	if _, ok := b.rx[msg.Src]; !ok {
		panic(fmt.Sprintf("can: source %q not attached to %s", msg.Src, b.cfg.Name))
	}
	limit := MaxPayload
	if b.fd {
		limit = MaxPayloadFD
	}
	if msg.Bytes > limit {
		panic(fmt.Sprintf("can: payload %dB exceeds %dB frame limit", msg.Bytes, limit))
	}
	if msg.Bytes < 0 {
		panic("can: negative payload size")
	}
	q := &queued{msg: msg, enqueued: b.k.Now(), seq: b.seq}
	b.seq++
	if b.tap != nil {
		q.span = b.tap.FrameEnqueued(b.cfg.Name, &q.msg, q.enqueued)
	}
	b.pending = append(b.pending, q)
	b.arbitrate()
}

// FrameBits returns the on-wire size of a standard (11-bit ID) data frame
// with n payload bytes: 47 framing bits + 8n data bits, plus worst-case
// stuff bits ⌊(34+8n−1)/4⌋ when enabled.
func FrameBits(n int, worstCaseStuffing bool) int64 {
	bits := int64(47 + 8*n)
	if worstCaseStuffing {
		bits += int64((34 + 8*n - 1) / 4)
	}
	return bits
}

// FrameTime returns the transmission time of an n-byte frame on this bus
// (classic or FD framing, per the bus configuration).
func (b *Bus) FrameTime(n int) sim.Duration {
	if b.fd {
		return FDFrameTime(n, b.cfg.BitsPerSecond, b.dataBps)
	}
	bits := FrameBits(n, b.cfg.WorstCaseStuffing)
	return sim.Duration((bits*1_000_000_000 + b.cfg.BitsPerSecond - 1) / b.cfg.BitsPerSecond)
}

// arbitrate starts the highest-priority pending frame if the bus is idle.
// Lower arbitration ID wins; ties (same ID from different stations would
// be a config error on real CAN) break by enqueue order.
func (b *Bus) arbitrate() {
	if b.busy || len(b.pending) == 0 {
		return
	}
	// Winner: the minimum (ID, seq); seq is unique, so there are no ties.
	w := 0
	for i, p := range b.pending[1:] {
		if win := b.pending[w]; p.msg.ID < win.msg.ID || (p.msg.ID == win.msg.ID && p.seq < win.seq) {
			w = i + 1
		}
	}
	q := b.pending[w]
	b.pending = slices.Delete(b.pending, w, w+1)
	b.busy = true
	ft := b.FrameTime(q.msg.Bytes)
	b.ArbitrationQ.AddDuration(b.k.Now().Sub(q.enqueued))
	b.FramesSent++
	b.BitsSent += FrameBits(q.msg.Bytes, b.cfg.WorstCaseStuffing)
	b.BusyTime += ft
	b.k.Trace("can", "%s: id=%#x %dB from %s tx=%v", b.cfg.Name, q.msg.ID, q.msg.Bytes, q.msg.Src, ft)
	if b.tap != nil {
		b.tap.FrameTxStart(b.cfg.Name, q.span, b.k.Now())
	}
	lost := b.rng != nil && b.rng.Bool(b.cfg.FrameLossRate)
	b.k.After(ft, func() {
		b.busy = false
		if lost {
			b.FramesLost++
			b.k.Trace("can", "%s: id=%#x destroyed by bus error", b.cfg.Name, q.msg.ID)
			if b.tap != nil {
				b.tap.FrameLost(b.cfg.Name, q.span, &q.msg, "bus-error", b.k.Now())
			}
		} else {
			b.deliver(q)
		}
		b.arbitrate()
	})
}

func (b *Bus) deliver(q *queued) {
	d := network.Delivery{Msg: q.msg, Enqueued: q.enqueued, Delivered: b.k.Now()}
	if q.msg.Dst != "" {
		if rx, ok := b.rx[q.msg.Dst]; ok {
			if b.tap != nil {
				b.tap.FrameDelivered(b.cfg.Name, q.span, &q.msg, q.msg.Dst, b.k.Now())
			}
			rx(d)
		} else if b.tap != nil {
			b.tap.FrameLost(b.cfg.Name, q.span, &q.msg, "no-receiver", b.k.Now())
		}
		return
	}
	// CAN is a broadcast medium: everyone but the sender receives.
	for _, n := range b.stations {
		if n == q.msg.Src {
			continue
		}
		if b.tap != nil {
			b.tap.FrameDelivered(b.cfg.Name, q.span, &q.msg, n, b.k.Now())
		}
		b.rx[n](d)
	}
}

// Utilization returns the fraction of elapsed time the bus was busy.
func (b *Bus) Utilization() float64 {
	if b.k.Now() == 0 {
		return 0
	}
	return float64(b.BusyTime) / float64(b.k.Now())
}

// PendingFrames returns the current arbitration backlog length.
func (b *Bus) PendingFrames() int { return len(b.pending) }
