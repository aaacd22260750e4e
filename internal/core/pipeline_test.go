package core

// The full-screen step loop's ring: how many snapshots and goroutines a run
// draws for it, and that every exit hands them back.

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/lockfree"
	"repro/internal/pool"
)

// goroutineCeiling is an Observer that fails the test when a sampling step
// completes with more goroutines alive than max.
type goroutineCeiling struct {
	t   *testing.T
	max int
}

func (g goroutineCeiling) OnStep(s StepInfo) {
	if n := runtime.NumGoroutine(); n > g.max {
		g.t.Errorf("step %d: %d goroutines alive, %d before the run", s.Step, n, g.max)
	}
}

func (goroutineCeiling) OnPhase(PhaseInfo) {}

// TestFullScreenPoolDraw: a one-worker run draws one freeze snapshot and
// starts no goroutine, a two-worker run draws the ring's second slot, either
// draws the scan's cell buffer, and every exit — completion, cancellation at
// step k, a latched insertion failure — hands back what it drew.
func TestFullScreenPoolDraw(t *testing.T) {
	sats := denseShellPopulation(400, 13)
	base := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 60, GridSlotFactor: 2}
	exits := map[string]func(t *testing.T, cfg Config){
		"completed": func(t *testing.T, cfg Config) {
			if cfg.Workers == 1 {
				cfg.Observer = goroutineCeiling{t: t, max: runtime.NumGoroutine()}
			}
			if _, err := NewGrid(cfg).Screen(sats); err != nil {
				t.Fatal(err)
			}
		},
		"cancelled": func(t *testing.T, cfg Config) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Observer = &cancelAtStep{at: 5, cancel: cancel}
			if _, err := NewHybrid(cfg).ScreenContext(ctx, sats); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		},
		"insertion-full": func(t *testing.T, cfg Config) {
			// A grid this small cannot hold the population's distinct cells.
			if _, err := NewGrid(cfg).Screen(sats); !errors.Is(err, lockfree.ErrFull) {
				t.Fatalf("err = %v, want ErrFull", err)
			}
		},
	}
	for _, workers := range []int{1, 2} {
		for name, exit := range exits {
			t.Run(map[int]string{1: "one-slot/", 2: "two-slot/"}[workers]+name, func(t *testing.T) {
				pl := pool.New()
				cfg := base
				cfg.Workers, cfg.Pool = workers, pl
				if name == "insertion-full" {
					cfg.GridSlotFactor = 0.01
				}
				exit(t, cfg)
				if out := pl.Stats().Outstanding(); out != 0 {
					t.Fatalf("%d pooled structures outstanding", out)
				}
				// What the run drew is what it put back: empty the snapshot and
				// cell-buffer free lists, counting.
				drained := func(get func()) (drawn int) {
					for {
						before := pl.Stats().Hits
						get()
						if pl.Stats().Hits == before {
							return drawn
						}
						drawn++
					}
				}
				if drawn := drained(func() { pl.GetSnapshot(len(sats)) }); drawn != workers {
					t.Errorf("the run drew %d freeze snapshots, want %d", drawn, workers)
				}
				if drawn := drained(func() { pl.GetCellBuf(2 * len(sats)) }); drawn != 1 {
					t.Errorf("the run drew %d cell buffers, want the scan's one", drawn)
				}
			})
		}
	}
}
