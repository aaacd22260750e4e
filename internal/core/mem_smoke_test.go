// The memory smoke test runs from an external package because it is an
// end-to-end exercise of the public surface under a real GOMEMLIMIT, not a
// unit test: `make mem-smoke` screens a 131072-object catalogue with the grid
// detector and fails if the sampled peak heap passes the limit. It is
// env-gated so the ordinary test tiers never pay the memory-squeezed run.
package core_test

import (
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
)

// smokePopulation is a deterministic catalogue spread over an 800 km radial
// band of near-circular LEO orbits.
func smokePopulation(n int) []propagation.Satellite {
	rng := mathx.NewSplitMix64(99)
	sats := make([]propagation.Satellite, n)
	for i := range sats {
		el := orbit.Elements{
			SemiMajorAxis: rng.UniformRange(6800, 7600),
			Eccentricity:  rng.UniformRange(0, 0.002),
			Inclination:   rng.UniformRange(0.1, math.Pi-0.1),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sats[i] = propagation.MustSatellite(int32(i), el)
	}
	return sats
}

// TestMemSmokeBoundedMemory screens the 131072-object catalogue with the grid
// detector under GOMEMLIMIT and fails if the sampled peak heap (catalogue
// included) passes the limit. Run via `make mem-smoke`.
func TestMemSmokeBoundedMemory(t *testing.T) {
	if os.Getenv("MEM_SMOKE") == "" {
		t.Skip("set MEM_SMOKE=1 and GOMEMLIMIT (see `make mem-smoke`) to run")
	}
	limit := debug.SetMemoryLimit(-1)
	if limit <= 0 || limit == math.MaxInt64 {
		t.Fatal("GOMEMLIMIT is unset; the smoke test is meaningless without a memory ceiling")
	}
	const n = 131072
	sats := smokePopulation(n)

	// runtime/metrics, not ReadMemStats: the sampler must not add
	// stop-the-world pauses to the memory-squeezed run it observes.
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > peak.Load() {
					peak.Store(v.Uint64())
				}
			}
		}
	}()

	cfg := core.Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 60, Workers: 2}
	start := time.Now()
	res, err := screenGrid(cfg, sats)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(peak.Load()); got > limit {
		t.Errorf("peak heap %d MiB exceeded the %d MiB limit", got>>20, limit>>20)
	}
	t.Logf("screened %d objects under GOMEMLIMIT=%d MiB: %d conjunctions, peak heap %d MiB, wall %.1fs",
		n, limit>>20, len(res.Conjunctions), peak.Load()>>20, time.Since(start).Seconds())
}
