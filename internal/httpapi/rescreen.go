package httpapi

// The rescreener is the continuous-operation loop: it watches the
// catalogue version and, whenever a delta has landed, hands the population
// and the dirty journal's account of the window since the last screened
// version to its screening session (satconj.Session), which extends its
// chain by a delta pass — N·k work for k dirty objects, the clean objects'
// cells read from the session's key track — or screens from scratch when it
// cannot (first run, journal pruned, epoch moved). Results land in the run
// registry (visible in /v1/runs while running) and in the store (queryable
// via /v1/conjunctions after the fact, and after restarts).

import (
	"context"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/store"
)

// Rescreener periodically re-screens the handler's catalogue. Create with
// NewRescreener, drive with Run.
type Rescreener struct {
	h        *Handler
	opts     satconj.Options
	interval time.Duration
	logf     func(format string, args ...any)
	nudge    chan struct{}

	// The chain: the session owns the prior result, its epoch and the key
	// track; lastVersion is the catalogue version of its last completed pass.
	// Only the Run goroutine touches either. sessionErr (opts name no variant
	// with an incremental mode) fails every pass.
	session     *satconj.Session
	sessionErr  error
	lastVersion uint64

	// testBeforeScreen, when set, runs after a pass decides to screen and
	// before the screen starts — a test seam for racing deltas/nudges
	// against an in-flight pass. Never set in production.
	testBeforeScreen func()
}

// NewRescreener wires a rescreener to h (which must have a catalogue;
// a store is optional but recommended). opts selects the screening
// parameters for every background run; opts.Variant must have an
// incremental mode (VariantDescriptor.Incremental: grid, hybrid or aabb).
// interval ≤ 0 selects one minute. logf may be nil (silent).
func NewRescreener(h *Handler, opts satconj.Options, interval time.Duration, logf func(format string, args ...any)) *Rescreener {
	if interval <= 0 {
		interval = time.Minute
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	session, err := satconj.NewSession(opts)
	return &Rescreener{h: h, opts: opts, interval: interval, logf: logf, nudge: make(chan struct{}, 1),
		session: session, sessionErr: err}
}

// Nudge requests an immediate pass (coalesced if one is already pending).
// Safe from any goroutine; used by tests and by operators who do not want
// to wait out the interval after a delta.
func (s *Rescreener) Nudge() {
	select {
	case s.nudge <- struct{}{}:
	default:
	}
}

// Run screens once immediately, then re-screens on every tick or nudge
// until ctx is cancelled. It returns ctx.Err(). Run is the only method
// that screens; call it from exactly one goroutine.
func (s *Rescreener) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	s.pass(ctx)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		case <-s.nudge:
		}
		s.pass(ctx)
	}
}

// RunOnce performs a single pass synchronously: screen now if the
// catalogue moved since the last successful pass, otherwise do nothing.
// It reports whether a screen ran. Intended for tests and one-shot CLI
// use; do not call concurrently with Run.
func (s *Rescreener) RunOnce(ctx context.Context) bool {
	return s.pass(ctx)
}

// pass runs one re-screen if the catalogue moved since the last one.
func (s *Rescreener) pass(ctx context.Context) bool {
	if ctx.Err() != nil || s.h.catalog == nil {
		return false
	}
	rev, dirty, removed, covered := s.h.catalog.DirtySince(catalog.Version(s.lastVersion))
	version := uint64(rev.Version())
	if version == s.lastVersion {
		// Catalogue unchanged since the last successful pass: the published
		// snapshot is current, so the check itself is the freshness signal —
		// without this an idle catalogue would age a healthy replica into
		// /healthz staleness.
		s.h.markRescreenChecked()
		return false
	}
	// The session extends its chain only when the dirty journal covers
	// (lastVersion, latest] and the epoch has not moved (a re-referenced epoch
	// shifts every object's t = 0, so prior TCAs are stale even for untouched
	// pairs); otherwise it screens from scratch.
	pass := satconj.Pass{Epoch: rev.Epoch(), Dirty: dirty, Removed: removed, Covered: covered}
	incremental := s.sessionErr == nil && s.session.Incremental(pass)
	sats := rev.Satellites()

	variant := string(s.opts.Variant)
	if variant == "" {
		variant = string(satconj.VariantHybrid)
	}
	mode := "full"
	if incremental {
		mode = "delta"
	}
	if s.testBeforeScreen != nil {
		s.testBeforeScreen()
	}
	entry := s.h.runs.start("rescreen-"+variant+"-"+mode, len(sats))
	pass.Observer = entry.observer()

	start := time.Now()
	var res *satconj.Result
	err := s.sessionErr
	if err == nil {
		res, err = s.session.Screen(ctx, sats, pass)
	}
	if err != nil {
		// The chain stays put: the next pass retries the same window (or a
		// wider one if more deltas land meanwhile).
		s.h.runs.fail(entry, err)
		s.h.metrics.rescreenFailures.Inc()
		s.logf("rescreen: version %d failed after %.2fs: %v", version, time.Since(start).Seconds(), err)
		return false
	}
	entry.recordTrack(res.Stats)
	s.h.runs.finish(entry, RunCompleted, len(res.Conjunctions), "")
	s.lastVersion = version
	s.h.publishRescreen(version, rev.Epoch(), len(sats), incremental, res, start)

	if s.h.store != nil {
		if _, serr := s.h.store.Append(store.Run{
			CatalogVersion: version,
			StartedAt:      start.UTC(),
			Elapsed:        time.Since(start).Seconds(),
			ThresholdKm:    s.opts.ThresholdKm,
			Duration:       s.opts.DurationSeconds,
			Objects:        len(sats),
			Incremental:    incremental,
			Variant:        "rescreen-" + variant,
			Conjunctions:   res.Conjunctions,
		}); serr != nil {
			s.logf("rescreen: persisting version %d failed: %v", version, serr)
		}
	}
	dropped := ""
	if res.Stats.TrackDropped != "" {
		dropped = ", dropped: " + res.Stats.TrackDropped
	}
	s.logf("rescreen: version %d, %d objects, %d dirty, %d conjunctions (%s, %.2fs; key track %d rows read, %d B%s)",
		version, len(sats), len(dirty), len(res.Conjunctions), mode, time.Since(start).Seconds(),
		res.Stats.TrackedObjects, res.Stats.TrackBytes, dropped)
	return true
}
