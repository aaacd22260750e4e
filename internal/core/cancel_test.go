package core

// Cancellation stress battery for the context-aware pipeline. Runs under
// the CI race job (which covers ./internal/core/...): cancelling grid (one-
// and two-slot ring) and hybrid screens at deterministic and randomised
// points must unwind promptly with context.Canceled, and the shared pool must balance
// on every exit path — the PR-2 "balanced at return" invariant extended to
// "balanced under cancellation".

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// cancelVariants enumerates the three step-loop shapes the battery exercises
// over a shared pool.
func cancelVariants(p *pool.Pool) []struct {
	name   string
	cfg    Config
	screen func(ctx context.Context, cfg Config, sats []propagation.Satellite) (*Result, error)
} {
	gridScreen := func(ctx context.Context, cfg Config, sats []propagation.Satellite) (*Result, error) {
		return newGrid(cfg).ScreenContext(ctx, sats)
	}
	hybridScreen := func(ctx context.Context, cfg Config, sats []propagation.Satellite) (*Result, error) {
		return newHybrid(cfg).ScreenContext(ctx, sats)
	}
	base := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1500, Workers: 2, Pool: p}
	oneSlot := base
	oneSlot.ablation.oneSlotRing = true
	hybrid := Config{ThresholdKm: 2, DurationSeconds: 1500, Workers: 2, Pool: p}
	return []struct {
		name   string
		cfg    Config
		screen func(ctx context.Context, cfg Config, sats []propagation.Satellite) (*Result, error)
	}{
		{"grid-two-slot", base, gridScreen},
		{"grid-one-slot", oneSlot, gridScreen},
		{"hybrid", hybrid, hybridScreen},
	}
}

// cancelAtStep is an Observer that cancels the run's context the moment the
// at-th sampling step completes, recording how many steps it saw in total.
type cancelAtStep struct {
	mu     sync.Mutex
	at     int
	cancel context.CancelFunc
	seen   int
}

func (c *cancelAtStep) OnStep(s StepInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if c.seen == c.at {
		c.cancel()
	}
}

func (c *cancelAtStep) OnPhase(PhaseInfo) {}

func (c *cancelAtStep) steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}

// TestCancelDuringSamplingUnwindsPromptly cancels each variant from inside
// the observer at a known step and checks the cooperative-cancellation
// contract: context.Canceled comes back, no further step is observed after
// the cancel, and the pool balances.
func TestCancelDuringSamplingUnwindsPromptly(t *testing.T) {
	sats := engineeredPopulation(t)
	p := pool.New()
	for _, v := range cancelVariants(p) {
		for _, at := range []int{1, 7, 40} {
			ctx, cancel := context.WithCancel(context.Background())
			obs := &cancelAtStep{at: at, cancel: cancel}
			cfg := v.cfg
			cfg.Observer = obs

			start := time.Now()
			res, err := v.screen(ctx, cfg, sats)
			elapsed := time.Since(start)
			cancel()

			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s cancel@%d: err = %v, want context.Canceled", v.name, at, err)
			}
			if res != nil {
				t.Errorf("%s cancel@%d: got a result alongside the error", v.name, at)
			}
			if got := obs.steps(); got > at {
				t.Errorf("%s cancel@%d: %d steps observed, want <= %d", v.name, at, got, at)
			}
			// "Prompt" at this scale: the full 1500-step run takes far
			// longer than the handful of steps before the cancel.
			if elapsed > 5*time.Second {
				t.Errorf("%s cancel@%d: took %v to unwind", v.name, at, elapsed)
			}
			if out := p.Stats().Outstanding(); out != 0 {
				t.Fatalf("%s cancel@%d: pool left %d structures outstanding", v.name, at, out)
			}
		}
	}
}

// cancelOnEmit is a Sink that cancels the run's context the moment the
// first conjunction is emitted — cancellation landing inside the refine
// phase, after sampling has fully succeeded.
type cancelOnEmit struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	seen   int
}

func (c *cancelOnEmit) Emit(Conjunction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if c.seen == 1 {
		c.cancel()
	}
}

func (c *cancelOnEmit) emissions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}

// TestCancelMidRefineAbortsAndBalancesPool cancels from inside the sink on
// the first emitted conjunction, so the cancellation lands mid-refinement —
// after the warm refiner has bound evaluators and possibly between two
// candidates of one worker chunk. The screen must abort with
// context.Canceled (no partial Result), even though at least one
// conjunction was already confirmed and streamed, and the shared pool must
// balance on the abort path.
func TestCancelMidRefineAbortsAndBalancesPool(t *testing.T) {
	sats := engineeredPopulation(t)
	p := pool.New()
	for _, v := range cancelVariants(p) {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelOnEmit{cancel: cancel}
		cfg := v.cfg
		cfg.Sink = sink

		res, err := v.screen(ctx, cfg, sats)
		cancel()

		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled from the mid-refine cancel", v.name, err)
		}
		if res != nil {
			t.Errorf("%s: got a result alongside the mid-refine cancellation", v.name)
		}
		if got := sink.emissions(); got < 1 {
			t.Errorf("%s: %d emissions before abort, want >= 1 (cancel must land mid-refine)", v.name, got)
		}
		if out := p.Stats().Outstanding(); out != 0 {
			t.Fatalf("%s: pool left %d structures outstanding after mid-refine abort", v.name, out)
		}
	}
}

// TestPreCancelledContextReturnsImmediately hands every variant an
// already-dead context: no sampling may happen and the pool must balance.
func TestPreCancelledContextReturnsImmediately(t *testing.T) {
	sats := engineeredPopulation(t)
	p := pool.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range cancelVariants(p) {
		res, err := v.screen(ctx, v.cfg, sats)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: res=%v err=%v, want nil result and context.Canceled", v.name, res, err)
		}
		if out := p.Stats().Outstanding(); out != 0 {
			t.Fatalf("%s: pool left %d structures outstanding", v.name, out)
		}
	}
}

// TestCancellationStressRandomPoints hammers all three variants from
// concurrent goroutines sharing one pool, cancelling each run after a
// pseudo-random (often zero) delay so cancellation lands before, during,
// and occasionally after the screening. Every outcome must be either a
// clean result or context.Canceled, and the pool must balance once the
// stampede drains. The race detector checks the unwinding paths' memory
// ordering; the assertions hold without it too.
func TestCancellationStressRandomPoints(t *testing.T) {
	sats := engineeredPopulation(t)
	p := pool.New()
	variants := cancelVariants(p)

	const goroutines = 6
	const itersPerGoroutine = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var cancelled, completed int
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mathx.NewSplitMix64(uint64(1000 + g))
			for iter := 0; iter < itersPerGoroutine; iter++ {
				v := variants[(g+iter)%len(variants)]
				ctx, cancel := context.WithCancel(context.Background())
				// Zero-delay iterations cancel concurrently with startup,
				// guaranteeing some cancellations regardless of host speed;
				// every fourth run is never cancelled, guaranteeing the
				// success path also runs under the shared pool.
				var timer *time.Timer
				if iter%4 != 0 {
					delay := time.Duration(rng.Intn(8)) * time.Millisecond
					timer = time.AfterFunc(delay, cancel)
				}
				res, err := v.screen(ctx, v.cfg, append([]propagation.Satellite(nil), sats...))
				if timer != nil {
					timer.Stop()
				}
				cancel()
				switch {
				case err == nil && res != nil:
					mu.Lock()
					completed++
					mu.Unlock()
				case errors.Is(err, context.Canceled) && res == nil:
					mu.Lock()
					cancelled++
					mu.Unlock()
				default:
					t.Errorf("%s: res=%v err=%v, want a result or context.Canceled", v.name, res, err)
				}
			}
		}(g)
	}
	wg.Wait()

	if cancelled == 0 {
		t.Error("no run was ever cancelled; the stress test exercised nothing")
	}
	if completed == 0 {
		t.Error("no run ever completed; the success path never ran under contention")
	}
	t.Logf("outcomes: %d cancelled, %d completed", cancelled, completed)
	if out := p.Stats().Outstanding(); out != 0 {
		t.Errorf("pool left %d structures outstanding after the stress run", out)
	}
}
