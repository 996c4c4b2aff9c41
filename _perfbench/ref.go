package main

import (
	"sort"
	"strconv"
)

// The host this benchmark runs on is shared: for minutes at a time,
// other guests slow every memory-bound Go program on it by up to half,
// while it is still running, so neither CPU time nor a fastest or median
// repetition within a run is steady. The reference kernel is a fixed
// piece of plain Go work — string-keyed map lookups, a pointer chase and
// a string sort, allocation-free — timed between batches. Its CPU time
// follows the host's speed, so every time metric is scaled by
// refNominal ÷ (the kernel's median CPU time during the pass), that is,
// expressed in CPU time on the reference box at its nominal speed.

// refNominal is the kernel's median CPU time, in seconds, on the
// reference box (2-vCPU Xeon VM at 2.1 GHz, go1.24) in a quiet period.
const refNominal = 0.0030

// refEvery is how much op CPU time may pass between two kernel runs.
const refEvery = 0.1 // seconds

// refKeys is the size of the kernel's map, list and sort.
const refKeys = 1 << 14

type refNode struct {
	next *refNode
	val  int
}

// refKernel holds the kernel's fixed data. It is built from constants,
// not from --seed, so every run of every workload times the same work.
type refKernel struct {
	keys    []string // map keys in a fixed shuffled order
	m       map[string]*refNode
	head    *refNode // list threaded through the nodes in shuffled order
	scratch []string
}

var refK = newRefKernel()

func newRefKernel() *refKernel {
	k := &refKernel{m: make(map[string]*refNode, refKeys), scratch: make([]string, refKeys)}
	perm := make([]int, refKeys)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- { // Fisher–Yates with a fixed LCG
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	nodes := make([]*refNode, refKeys)
	for i := range nodes {
		nodes[i] = &refNode{val: i}
	}
	for _, i := range perm {
		key := "ref-" + strconv.Itoa(i*7919)
		k.keys = append(k.keys, key)
		k.m[key] = nodes[i]
	}
	for n := 0; n+1 < len(perm); n++ {
		nodes[perm[n]].next = nodes[perm[n+1]]
	}
	k.head = nodes[perm[0]]
	return k
}

// run does the kernel's work once and returns a checksum that depends
// on all of it.
func (k *refKernel) run() int {
	s := 0
	for _, key := range k.keys {
		s += k.m[key].val
	}
	for n := k.head; n != nil; n = n.next {
		s ^= n.val
	}
	copy(k.scratch, k.keys)
	sort.Strings(k.scratch)
	return s + len(k.scratch[0]) + len(k.scratch[len(k.scratch)-1])
}

// refSink keeps the kernel's checksum live.
var refSink int

// refTime runs the kernel once and returns its CPU time in seconds.
func refTime() float64 {
	t0 := cpuNow()
	refSink += refK.run()
	return (cpuNow() - t0).Seconds()
}
