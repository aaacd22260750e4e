package main

// The shardscale experiment extends the Fig. 10 runtime curves to the
// catalogue sizes the paper's §V-B memory model is actually about: ≥512k
// objects, where an unsharded grid's screening structures outgrow a bounded
// per-shard budget and the sharded detector splits the population into
// radial bands (DESIGN.md §15). Each row prints wall time and the sampled
// peak heap: the runtime curve and the memory ceiling side by side.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	satconj "repro"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/report"
)

// resetHeapBaseline empties the process-wide buffer pool and collects
// before a measured screen. Without it, the peak-heap figure would carry
// whatever earlier experiments (or the previous, larger shardscale row)
// left idle in pool.Default — the 524k rows retain hundreds of MiB of
// buffers no later row can reuse — and the figure would measure run
// order, not the screen.
func resetHeapBaseline() {
	pool.Default.Drain()
	runtime.GC()
}

// screenPeakHeap runs one screen with a peak-heap sampler beside it: the
// heap-objects byte count (HeapAlloc's runtime/metrics equivalent) every
// 25 ms while the screen is in flight — the observable behind the sharded
// detectors' memory-ceiling claim (DESIGN.md §15). runtime/metrics, not
// ReadMemStats: the latter stops the world on every call, and with a
// multi-GiB heap those pauses measurably inflate the run being timed.
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

// runShardscale sweeps the sharded grid across large populations — and the
// unsharded grid across the sizes where it still fits comfortably — at a
// 60 s span (override with -duration): the quadratic candidate volume of the
// default 600 s span would swamp the structural memory the experiment is
// measuring.
func runShardscale(ctx *benchCtx) error {
	duration := ctx.durationOr(60)
	threshold := ctx.thresholdOr(2)
	sizes := []int{131072, 262144, 524288}
	if ctx.full {
		sizes = append(sizes, 1048576)
	}
	// The unsharded reference stops where its modelled footprint passes
	// 4× the shard budget — far enough to show divergence, cheap enough
	// to keep the sweep minutes-long.
	unshardedCap := 0
	pl := model.Planner{Model: model.PaperGrid}
	for _, n := range sizes {
		if pl.GridFootprintBytes(n, duration, threshold, 1) <= 4*model.DefaultShardBudgetBytes {
			unshardedCap = n
		}
	}

	fmt.Printf("span %.0f s, threshold %.1f km, shard budget %d MiB (§V-B model-driven)\n\n",
		duration, threshold, model.DefaultShardBudgetBytes>>20)
	var fig report.Figure
	fig.Title = "Shardscale — full-range runtime"
	fig.XLabel, fig.YLabel = "satellites", "runtime_s"

	base := satconj.Options{ThresholdKm: threshold, DurationSeconds: duration}
	for _, n := range sizes {
		sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
		if err != nil {
			return err
		}
		o := base
		o.Variant = satconj.VariantSharded
		resetHeapBaseline()
		res, elapsed, peak, err := screenPeakHeap(ctx, sats, o)
		if err != nil {
			return fmt.Errorf("sharded-grid at n=%d: %w", n, err)
		}
		fig.Add("sharded-grid", float64(n), elapsed.Seconds())
		fmt.Printf("  n=%-8d %-14s %10.3fs  shards=%-3d peak_heap=%4d MiB  conj=%d\n",
			n, "sharded-grid", elapsed.Seconds(), res.Stats.Shards, peak>>20, len(res.Conjunctions))

		if n <= unshardedCap {
			o := base
			o.Variant = satconj.VariantGrid
			resetHeapBaseline()
			res, elapsed, peak, err := screenPeakHeap(ctx, sats, o)
			if err != nil {
				return fmt.Errorf("grid at n=%d: %w", n, err)
			}
			fig.Add("grid-unsharded", float64(n), elapsed.Seconds())
			fmt.Printf("  n=%-8d %-14s %10.3fs  shards=%-3d peak_heap=%4d MiB  conj=%d\n",
				n, "grid-unsharded", elapsed.Seconds(), res.Stats.Shards, peak>>20, len(res.Conjunctions))
		}
	}
	// Leave the heap as found: the large-population buffers must not leak
	// into whatever experiment the -exp list runs next.
	resetHeapBaseline()
	fmt.Println()
	if err := writeSVG(ctx, "shardscale", &fig, true); err != nil {
		return err
	}
	if ctx.csv {
		return fig.WriteCSV(os.Stdout)
	}
	return fig.WriteASCII(os.Stdout)
}
