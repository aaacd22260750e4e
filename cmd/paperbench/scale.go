package main

// The scale experiment extends the Fig. 10 runtime curves to the catalogue
// sizes the paper's §V-B memory model is about: 131k to 524k objects, and
// 1,048,576 behind -full. Each row prints the grid's wall time, its sampled
// peak heap (the caller's catalogue included) and the conjunction count.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	satconj "repro"
	"repro/internal/pool"
	"repro/internal/report"
)

// resetHeapBaseline empties the process-wide buffer pool and collects
// before a measured screen. Without it, the peak-heap figure would carry
// whatever earlier experiments (or the previous, larger row) left idle in
// pool.Default, and the figure would measure run order, not the screen.
func resetHeapBaseline() {
	pool.Default.Drain()
	runtime.GC()
}

// screenPeakHeap runs one screen with a peak-heap sampler beside it: the
// heap-objects byte count (HeapAlloc's runtime/metrics equivalent) every
// 25 ms while the screen is in flight. runtime/metrics, not ReadMemStats:
// the latter stops the world on every call, and with a multi-GiB heap those
// pauses measurably inflate the run being timed.
func screenPeakHeap(ctx *benchCtx, sats []satconj.Satellite, o satconj.Options) (*satconj.Result, time.Duration, uint64, error) {
	var peak atomic.Uint64
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(25 * time.Millisecond)
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
	start := time.Now()
	res, err := satconj.ScreenContext(ctx.runCtx(), sats, o)
	elapsed := time.Since(start)
	close(stop)
	<-samplerDone
	if err != nil {
		return nil, elapsed, 0, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return res, elapsed, max(peak.Load(), after.HeapAlloc), nil
}

// runScale sweeps the grid across large populations at a 60 s span
// (override with -duration): the quadratic candidate volume of the default
// 600 s span would swamp the structural memory the experiment is measuring.
func runScale(ctx *benchCtx) error {
	duration := ctx.durationOr(60)
	threshold := ctx.thresholdOr(2)
	sizes := []int{131072, 262144, 524288}
	if ctx.full {
		sizes = append(sizes, 1048576)
	}

	fmt.Printf("span %.0f s, threshold %.1f km, grid at 1 s sampling\n\n", duration, threshold)
	var fig report.Figure
	fig.Title = "Scale — grid runtime at 131k+ objects"
	fig.XLabel, fig.YLabel = "satellites", "runtime_s"

	o := satconj.Options{Variant: satconj.VariantGrid, ThresholdKm: threshold, DurationSeconds: duration}
	for _, n := range sizes {
		sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
		if err != nil {
			return err
		}
		resetHeapBaseline()
		res, elapsed, peak, err := screenPeakHeap(ctx, sats, o)
		if err != nil {
			return fmt.Errorf("grid at n=%d: %w", n, err)
		}
		fig.Add("grid", float64(n), elapsed.Seconds())
		fmt.Printf("  n=%-8d %10.3fs  peak_heap=%4d MiB  conj=%d\n",
			n, elapsed.Seconds(), peak>>20, len(res.Conjunctions))
	}
	// Leave the heap as found: the large-population buffers must not leak
	// into whatever experiment the -exp list runs next.
	resetHeapBaseline()
	fmt.Println()
	if err := writeSVG(ctx, "scale", &fig, true); err != nil {
		return err
	}
	if ctx.csv {
		return fig.WriteCSV(os.Stdout)
	}
	return fig.WriteASCII(os.Stdout)
}
