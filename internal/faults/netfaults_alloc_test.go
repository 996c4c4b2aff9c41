package faults

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// stubNet is a network.Network that only counts sends, so allocation
// measurements see the interceptor alone.
type stubNet struct{ sent int }

func (s *stubNet) Name() string                    { return "stub" }
func (s *stubNet) Attach(string, network.Receiver) {}
func (s *stubNet) Send(network.Message)            { s.sent++ }

// A frame passing a fault-free, untapped interceptor must not allocate:
// only the tap branches take the message's address, on a local copy.
func TestNetFaultsSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	inner := &stubNet{}
	nf := WrapNetwork(k, inner, NetConfig{})
	msg := network.Message{ID: 0x10, Src: "src", Dst: "dst",
		Class: network.ClassPriority, Bytes: 64, Payload: []byte{1, 2, 3}}
	if n := testing.AllocsPerRun(100, func() { nf.Send(msg) }); n != 0 {
		t.Errorf("Send allocs/op = %g, want 0", n)
	}
	if inner.sent == 0 || nf.Passed != int64(inner.sent) {
		t.Errorf("passed %d frames, inner saw %d", nf.Passed, inner.sent)
	}
}
