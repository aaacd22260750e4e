package core

// The fork machinery: forkJoin.do against its contract at every size around
// the grains, on one to four workers, with and without a context that can be
// cancelled; a service-sized delta pass starting no goroutine; and the
// crossover harness the grains were chosen with.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/population"
)

// goroutineID is the calling goroutine's ID, read off its stack header.
func goroutineID() uint64 {
	var buf [64]byte
	header := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(header[:bytes.IndexByte(header, ' ')]), 10, 64)
	return id
}

// forkVisit is what one do call's kernel saw: the chunks it ran, the
// goroutine each w ran on, and whether a chunk ran off the calling goroutine.
type forkVisit struct {
	mu        sync.Mutex
	chunks    [][2]int
	goroutine map[int]uint64
	off       bool
}

func (v *forkVisit) record(t *testing.T, caller uint64, workers, w, lo, hi int) {
	g := goroutineID()
	v.mu.Lock()
	defer v.mu.Unlock()
	if w < 0 || w >= workers {
		t.Errorf("a chunk ran as worker %d of %d", w, workers)
	}
	v.chunks, v.off = append(v.chunks, [2]int{lo, hi}), v.off || g != caller
	if at, seen := v.goroutine[w]; seen && at != g {
		t.Errorf("worker %d ran on goroutines %d and %d", w, at, g)
	}
	for other, at := range v.goroutine {
		if other != w && at == g {
			t.Errorf("workers %d and %d both ran on goroutine %d", other, w, g)
		}
	}
	v.goroutine[w] = g
}

// TestForkJoinDo: at every size from 0 to 4·grain+1, at the run's grain and at
// one that starts four workers on a dozen items, on one to four workers,
// under Background and under a context that can be cancelled, a fork's chunks
// tile [0, n) — every index visited once — each of its goroutines has its own
// w below workers, and below the grain it runs on the calling goroutine.
func TestForkJoinDo(t *testing.T) {
	for _, grain := range []int{forkGrain, 3} {
		for workers := 1; workers <= 4; workers++ {
			for _, cancellable := range []bool{false, true} {
				t.Run(fmt.Sprintf("grain=%d/workers=%d/cancellable=%t", grain, workers, cancellable), func(t *testing.T) {
					var f forkJoin // one state for every call, as a run keeps it
					for n := 0; n <= 4*grain+1; n++ {
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if cancellable {
							ctx, cancel = context.WithCancel(ctx)
						}
						v := &forkVisit{goroutine: map[int]uint64{}}
						caller := goroutineID()
						err := f.do(ctx, workers, grain, n, func(w, lo, hi int) { v.record(t, caller, workers, w, lo, hi) })
						cancel()
						if err != nil {
							t.Fatalf("n = %d: %v", n, err)
						}
						slices.SortFunc(v.chunks, func(a, b [2]int) int { return a[0] - b[0] })
						next := 0
						for _, c := range v.chunks {
							if c[0] != next || c[1] <= c[0] {
								t.Fatalf("n = %d: chunks %v do not tile [0, n)", n, v.chunks)
							}
							next = c[1]
						}
						if next != n {
							t.Fatalf("n = %d: chunks %v do not tile [0, n)", n, v.chunks)
						}
						if n < grain && v.off {
							t.Fatalf("n = %d, below the grain %d: a chunk ran off the calling goroutine", n, grain)
						}
					}
				})
			}
		}
	}
}

// TestForkJoinDoCancelled: a context cancelled by a fork's first chunk starts
// no chunk after it — each other worker may finish the one it had begun — so
// part of the range is never visited, and the fork returns the context's
// error, at every size and worker count.
func TestForkJoinDoCancelled(t *testing.T) {
	const grain = forkGrain
	for workers := 1; workers <= 4; workers++ {
		var f forkJoin
		for n := 2; n <= 4*grain+1; n++ {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			var cancelled atomic.Bool // set once the context is
			var after atomic.Int32    // chunks begun after that
			var visited atomic.Int64
			err := f.do(ctx, workers, grain, n, func(_, lo, hi int) {
				if cancelled.Load() {
					after.Add(1)
				}
				visited.Add(int64(hi - lo))
				once.Do(func() { cancel(); cancelled.Store(true) })
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers = %d, n = %d: err = %v, want context.Canceled", workers, n, err)
			}
			// A worker that checked the context before the cancel may begin one chunk.
			if limit := int32(min(workers, n/grain+1) - 1); after.Load() > limit {
				t.Fatalf("workers = %d, n = %d: %d chunks began after the cancel, at most %d may", workers, n, after.Load(), limit)
			}
			if visited.Load() >= int64(n) {
				t.Fatalf("workers = %d, n = %d: every item was visited after a cancel in the first chunk", workers, n)
			}
		}
	}
}

// TestServiceDeltaPassStartsNoGoroutine: a 16-object pass of a primed hybrid
// session over 8k objects, on two workers under a context that can be
// cancelled — the rescreen loop's pass — runs every fork and every scan on the
// goroutine that calls it: no fork binds the worker it would start, and no
// step completes with more goroutines alive than before the pass.
func TestServiceDeltaPassStartsNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sats := population.MustGenerate(population.Config{N: 8000, Seed: 1})
	cfg := Config{DurationSeconds: 600, Workers: 2, Pool: pool.New()}
	sess, err := NewSession(VariantHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nudger := &deltaNudger{sats: sats, rng: mathx.NewSplitMix64(7)}
	if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	for range 2 { // opens the track, then reads it
		if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: nudger.next(16), Covered: true}); err != nil {
			t.Fatal(err)
		}
	}
	// The session's next pass, framed by hand so its forks can be read. A
	// goroutine of the passes before that has yet to exit only lowers the count.
	d := sess.desc.New(cfg).(*detector)
	d.cfg.Observer = goroutineCeiling{t: t, max: runtime.NumGoroutine()}
	delta := &DeltaInput{Prior: sess.prior, Dirty: nudger.next(16), session: sess}
	r, err := newRun(ctx, d.cfg, sats, d.sps, d.knotSeconds, delta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	res, err := d.screenRun(r, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !r.incremental || res.Stats.Steps < 2 {
		t.Fatalf("the pass ran %d steps, incremental %t: not a delta pass", res.Stats.Steps, r.incremental)
	}
	if r.buildFork.worker != nil || r.scanFork.worker != nil {
		t.Fatal("a fork of the pass started a worker goroutine")
	}
}

// BenchmarkForkCrossover is the grain's crossover harness, on the service's
// 8k population under a context that can be cancelled. Each kernel a run
// forks runs over its first n items inline (workers-1) and on two goroutines
// (workers-2, grain 1): the smallest n at which two workers win is the
// kernel's crossover. Classify and refine fork inside their phases, at the
// run's grain, so they report their cost per item inline; "handoff" is a
// fork of an empty kernel after a 20 µs serial gap, which lets the second
// worker's thread park as it does between a pass's forks (EXPERIMENTS.md
// "Forks sized by their work").
func BenchmarkForkCrossover(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sats := population.MustGenerate(population.Config{N: 8000, Seed: 1})
	// newCrossoverRun is a two-worker run over sats at sps, listing off: a
	// step's build keys every object.
	newCrossoverRun := func(b *testing.B, sps float64, delta *DeltaInput) *run {
		cfg := Config{DurationSeconds: 600, SecondsPerSample: sps, Workers: 2, Pool: pool.New()}
		r, err := newRun(ctx, cfg, sats, sps, knotSeconds, delta)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(r.release)
		r.listing = false
		return r
	}
	// ladder times fork, which runs its kernel over n items on the given
	// workers, at each n.
	ladder := func(b *testing.B, ns []int, fork func(i, workers, n int) error) {
		for _, n := range ns {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/workers-%d", n, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := fork(i, workers, n); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	sizes := []int{16, 64, 256, 1024}
	b.Run("handoff", func(b *testing.B) {
		var f forkJoin
		nop := func(_, _, _ int) {}
		ladder(b, []int{2}, func(_, workers, n int) error {
			for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
			}
			return f.do(ctx, workers, 1, n, nop)
		})
	})
	b.Run("build", func(b *testing.B) { // the full screen's, its steps in order
		r := newCrossoverRun(b, 1, nil)
		r.buildKernel = (*run).buildRange
		ladder(b, sizes, func(i, workers, n int) error {
			if r.buildStep = i % r.steps; r.buildStep == 0 {
				for k := range r.sats {
					r.seed(k)
				}
			}
			r.stepEntries = r.entries
			return r.buildFork.do(ctx, workers, 1, n, r.buildFn)
		})
	})
	b.Run("dirty", func(b *testing.B) { // a window's solves of each dirty object
		dirty := make([]int32, len(sats)/8)
		for k := range dirty {
			dirty[k] = sats[8*k].ID
		}
		r := newCrossoverRun(b, DefaultHybridSeconds, &DeltaInput{Dirty: dirty}) // no session: no track
		r.buildKernel = (*run).dirtyRange
		ladder(b, []int{4, 16, 64, 256}, func(i, workers, n int) error {
			if r.buildStep = i * boxSteps % r.steps; r.buildStep == 0 {
				for _, k := range r.dirtyIdx {
					r.seed(int(k))
				}
			}
			return r.buildFork.do(ctx, workers, 1, n, r.buildFn)
		})
	})
	b.Run("sweep", func(b *testing.B) {
		r := newCrossoverRun(b, 1, nil)
		entries, err := r.buildEntries(0, r.entries)
		if err != nil {
			b.Fatal(err)
		}
		r.scan(scanJob{entries: entries})
		cells := r.scanCells
		ladder(b, sizes, func(_, workers, n int) error {
			r.scanCells = cells[:n]
			for w := range r.scanBufs {
				r.scanBufs[w] = r.scanBufs[w][:0]
			}
			return r.scanFork.do(ctx, workers, 1, n, r.scanFn)
		})
	})
	b.Run("join", func(b *testing.B) {
		r := newCrossoverRun(b, 1, nil)
		r.listing = true
		for step := range 2 { // the knot step writes the boxes, the next joins them
			if _, err := r.buildEntries(step, r.entries); err != nil {
				b.Fatal(err)
			}
		}
		sorted := r.join.sorted
		r.buildKernel = (*run).joinRange
		ladder(b, sizes, func(_, workers, n int) error {
			r.join.sorted = sorted[:n]
			r.join.tests.Store(0)
			return r.buildFork.do(ctx, workers, 1, n, r.buildFn)
		})
	})
	// The hybrid detector's candidates over the whole span, on one worker.
	sampled := func(b *testing.B) *run {
		r := newCrossoverRun(b, DefaultHybridSeconds, nil)
		if err := r.sampleAllSteps(); err != nil {
			b.Fatal(err)
		}
		r.workers = 1
		b.ResetTimer()
		return r
	}
	perItem := func(b *testing.B, items int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/item")
	}
	b.Run("classify", func(b *testing.B) {
		r := sampled(b)
		items := 0
		for i := 0; i < b.N; i++ {
			decs, err := r.classifyPairs(r.keys)
			if err != nil {
				b.Fatal(err)
			}
			items += len(decs)
		}
		perItem(b, items)
	})
	b.Run("refine", func(b *testing.B) {
		r := sampled(b)
		pairs := r.keys[:min(len(r.keys), 512)]
		for i := 0; i < b.N; i++ {
			if _, err := r.refineCandidates(pairs); err != nil {
				b.Fatal(err)
			}
		}
		perItem(b, b.N*len(pairs))
	})
}
