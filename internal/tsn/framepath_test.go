package tsn

import (
	"reflect"
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Pinning tests for the per-frame paths: queue order and broadcast
// fan-out order. The expected values are fixed behaviour that experiment
// tables and fuzz fingerprints depend on; they must not move when the
// queue or fan-out implementation changes.

// Each priority queue stays FIFO across more than a thousand pops on
// both the uplink and the egress port.
func TestQueueFIFOAcrossManyPops(t *testing.T) {
	const perClass = 1100
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig("backbone"))
	n.Attach("src", func(network.Delivery) {})
	seen := map[network.Class][]int{}
	var last sim.Time
	n.Attach("sink", func(d network.Delivery) {
		seen[d.Msg.Class] = append(seen[d.Msg.Class], d.Msg.Payload.(int))
		last = d.Delivered
	})
	k.At(0, func() {
		for i := 0; i < 2*perClass; i++ {
			c := network.ClassBulk
			if i%2 == 1 {
				c = network.ClassControl
			}
			n.Send(network.Message{Class: c, Src: "src", Dst: "sink", Bytes: 64, Payload: i})
		}
	})
	k.Run()
	for _, c := range []network.Class{network.ClassBulk, network.ClassControl} {
		got := seen[c]
		if len(got) != perClass {
			t.Fatalf("%v deliveries = %d, want %d", c, len(got), perClass)
		}
		for j := 1; j < len(got); j++ {
			if got[j] != got[j-1]+2 {
				t.Fatalf("%v queue not FIFO at pop %d: %d after %d", c, j, got[j], got[j-1])
			}
		}
	}
	if want := sim.Time(18_666_480); last != want {
		t.Errorf("last delivery at %v, want %v", last, want)
	}
}

// Broadcast fan-out follows sorted station order regardless of attach
// order.
func TestBroadcastSortedWithUnsortedAttach(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig("backbone"))
	var got []string
	for _, s := range []string{"mid", "ccc", "zed", "aaa", "bbb"} {
		n.Attach(s, func(network.Delivery) { got = append(got, s) })
	}
	n.Attach("ccc", func(network.Delivery) { got = append(got, "ccc-re") })
	n.Send(network.Message{Class: network.ClassPriority, Src: "mid", Bytes: 10})
	k.Run()
	want := []string{"aaa", "bbb", "ccc-re", "zed"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("broadcast order = %v, want %v", got, want)
	}
}
