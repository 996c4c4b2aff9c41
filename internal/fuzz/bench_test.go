package fuzz

import "testing"

// Cost of the universal-property oracle (five full-stack runs per
// seed, two of them observed with their artifacts compared).
//
//	go test -run '^$' -bench 'BenchmarkCheck' -benchmem ./internal/fuzz/
//
// One op is a Check sweep over a fixed set of 64 generated specs
// (seeds 1..64); generation happens before the timer starts.
func BenchmarkCheck(b *testing.B) {
	specs := make([]Spec, 64)
	for i := range specs {
		specs[i] = Generate(uint64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			if rep := Check(sp); rep.Failed() {
				b.Fatalf("seed %d: %v", sp.Seed, rep.Violations)
			}
		}
	}
}
