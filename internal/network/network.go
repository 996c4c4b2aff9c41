// Package network defines the common abstraction over dynaplat's simulated
// in-vehicle communication systems (CAN, FlexRay, Ethernet/TSN).
//
// Networks move opaque payloads between named ECU stations on virtual
// time; the per-technology packages model the medium's arbitration and
// timing. Payload *content* never affects timing — only its size does —
// which keeps the simulators honest about what the wire sees.
package network

import (
	"slices"

	"dynaplat/internal/sim"
)

// Class is a traffic class. Interpretation is per technology: CAN maps it
// to arbitration priority, TSN to an 802.1Q priority queue, FlexRay to
// static (deterministic) versus dynamic (priority) segment.
type Class int

const (
	// ClassControl is deterministic, safety-critical traffic
	// (time-triggered where the technology supports it).
	ClassControl Class = iota
	// ClassPriority is latency-sensitive but event-driven traffic.
	ClassPriority
	// ClassBulk is best-effort bulk/streaming traffic.
	ClassBulk
)

func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassPriority:
		return "priority"
	case ClassBulk:
		return "bulk"
	}
	return "unknown"
}

// Message is one transfer request handed to a network.
type Message struct {
	// ID is the technology-level identifier (CAN arbitration ID, FlexRay
	// frame ID, TSN stream handle). For CAN, lower ID wins arbitration.
	ID uint32
	// Src and Dst name attached stations; empty Dst broadcasts.
	Src, Dst string
	Class    Class
	// Bytes is the payload size on the wire.
	Bytes int
	// Payload is delivered opaquely to the receiver(s).
	Payload any
}

// Delivery reports a completed transfer to a receiver.
type Delivery struct {
	Msg Message
	// Enqueued is when the sender handed the message to the network.
	Enqueued sim.Time
	// Delivered is when the last bit arrived at the receiver.
	Delivered sim.Time
}

// Latency returns the enqueue-to-delivery latency.
func (d Delivery) Latency() sim.Duration { return d.Delivered.Sub(d.Enqueued) }

// Receiver consumes deliveries at a station.
type Receiver func(Delivery)

// Network is the technology-independent interface the SOA middleware and
// the platform use.
type Network interface {
	// Name identifies the network instance.
	Name() string
	// Attach registers a station; rx receives its deliveries.
	Attach(station string, rx Receiver)
	// Send enqueues a message. It panics if the source is not attached.
	Send(msg Message)
}

// TxTime returns the serialization time of n bytes at rate bits/s,
// rounded up to whole nanoseconds.
func TxTime(bytes int, bitsPerSecond int64) sim.Duration {
	if bitsPerSecond <= 0 {
		return 0
	}
	bits := int64(bytes) * 8
	return sim.Duration((bits*1_000_000_000 + bitsPerSecond - 1) / bitsPerSecond)
}

// InsertSorted returns a new slice with station added to the sorted
// stations, keeping the order; stations itself is never modified. Media keep their broadcast
// fan-out list this way, so a delivery loop ranging over the old slice
// is unaffected by an Attach made from inside a receiver.
func InsertSorted(stations []string, station string) []string {
	i, _ := slices.BinarySearch(stations, station)
	out := make([]string, 0, len(stations)+1)
	out = append(out, stations[:i]...)
	out = append(out, station)
	return append(out, stations[i:]...)
}
