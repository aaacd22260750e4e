package core

// Steady-state screening benchmarks: the same detector configuration run
// over many back-to-back windows, the operating mode of a long-running
// screening service. allocs/op here is the number the allocation-budget
// test (alloc_test.go) gates; Workers is pinned to 1 so goroutine spawning
// does not drown out data-structure churn (cross-request concurrency is the
// server layer's business, measured separately).

import (
	"testing"
)

// steadyStateConfig is the shared window configuration of the steady-state
// benchmarks and the allocation-budget test.
func steadyStateConfig() Config {
	return Config{
		ThresholdKm:      2,
		SecondsPerSample: 1,
		DurationSeconds:  120,
		Workers:          1,
	}
}

func BenchmarkSteadyStateScreen(b *testing.B) {
	sats := benchShellPopulation(b, 1000)
	det := newGrid(steadyStateConfig())
	// One warm-up window so one-time costs (first-use pools, lazy sizing)
	// do not count against the steady state.
	if _, err := det.Screen(sats); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Screen(sats); err != nil {
			b.Fatal(err)
		}
	}
}
