package can

import (
	"fmt"
	"reflect"
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Pinning tests for the per-frame paths: arbitration order and broadcast
// fan-out order. The expected sequences are fixed behaviour that
// experiment tables and fuzz fingerprints depend on; they must not move
// when the arbitration or fan-out implementation changes.

// tag renders a delivered frame as "<id>/<payload>".
func tag(d network.Delivery) string { return fmt.Sprintf("%#x/%v", d.Msg.ID, d.Msg.Payload) }

// Equal IDs from different stations are served in enqueue order.
func TestArbitrationEqualIDsFIFO(t *testing.T) {
	k := sim.NewKernel(1)
	b := newBus(k)
	var got []string
	for _, s := range []string{"a", "b", "c"} {
		b.Attach(s, func(network.Delivery) {})
	}
	b.Attach("sink", func(d network.Delivery) { got = append(got, tag(d)) })
	k.At(0, func() {
		send := func(src string, id uint32, p string) {
			b.Send(network.Message{ID: id, Src: src, Dst: "sink", Bytes: 2, Payload: p})
		}
		send("a", 0x300, "busy") // grabs the idle bus
		send("b", 0x100, "b1")
		send("c", 0x100, "c1")
		send("a", 0x100, "a1")
		send("b", 0x100, "b2")
		send("c", 0x100, "c2")
	})
	k.Run()
	want := []string{"0x300/busy", "0x100/b1", "0x100/c1", "0x100/a1", "0x100/b2", "0x100/c2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// The lowest ID wins after out-of-order enqueues, including frames
// enqueued mid-transmission and from inside a receiver.
func TestArbitrationWinnerAfterOutOfOrderEnqueues(t *testing.T) {
	k := sim.NewKernel(1)
	b := newBus(k)
	var got []string
	b.Attach("a", func(network.Delivery) {})
	b.Attach("b", func(network.Delivery) {})
	send := func(src string, id uint32, p string) {
		b.Send(network.Message{ID: id, Src: src, Dst: "sink", Bytes: 1, Payload: p})
	}
	b.Attach("sink", func(d network.Delivery) {
		got = append(got, tag(d))
		if d.Msg.Payload == "low" {
			send("b", 0x0f0, "from-rx")
		}
	})
	k.At(0, func() {
		send("a", 0x700, "busy")
		send("b", 0x400, "p")
		send("a", 0x120, "x")
		send("b", 0x600, "p")
		send("b", 0x120, "y")
		send("a", 0x050, "low")
		send("b", 0x300, "p")
	})
	k.At(sim.Time(50*sim.Microsecond), func() { send("a", 0x010, "mid-tx") })
	k.Run()
	want := []string{
		"0x700/busy", "0x10/mid-tx", "0x50/low", "0xf0/from-rx",
		"0x120/x", "0x120/y", "0x300/p", "0x400/p", "0x600/p",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if b.PendingFrames() != 0 {
		t.Errorf("pending = %d after drain", b.PendingFrames())
	}
}

// Broadcast delivery runs in sorted station order regardless of attach
// order; a re-attach swaps the receiver in place, and a station
// attached from inside a delivery callback first hears the next frame.
func TestBroadcastOrderAndAttach(t *testing.T) {
	k := sim.NewKernel(1)
	b := newBus(k)
	var got []string
	rec := func(label string) network.Receiver {
		return func(network.Delivery) { got = append(got, label) }
	}
	for _, s := range []string{"mid", "ccc", "zed", "aaa", "bbb"} {
		b.Attach(s, rec(s))
	}
	frame := 0
	b.Attach("aaa", func(network.Delivery) {
		got = append(got, "aaa")
		frame++
		if frame == 2 {
			b.Attach("abc", rec("abc"))     // new: sorts right after aaa
			b.Attach("zed", rec("zed-new")) // re-attach: takes effect now
		}
	})
	b.Attach("ccc", rec("ccc-re"))
	var perFrame [][]string
	for i, src := range []string{"mid", "bbb", "mid"} {
		k.At(sim.Time(i)*sim.Time(sim.Millisecond), func() {
			b.Send(network.Message{ID: 0x100, Src: src, Bytes: 1})
		})
		k.At(sim.Time(i)*sim.Time(sim.Millisecond)+sim.Time(900*sim.Microsecond), func() {
			perFrame = append(perFrame, got)
			got = nil
		})
	}
	k.Run()
	want := [][]string{
		{"aaa", "bbb", "ccc-re", "zed"},
		{"aaa", "ccc-re", "mid", "zed-new"},
		{"aaa", "abc", "bbb", "ccc-re", "zed-new"},
	}
	if !reflect.DeepEqual(perFrame, want) {
		t.Errorf("broadcast order = %v, want %v", perFrame, want)
	}
}
