package httpapi

// The read-side fan-out surface (DESIGN.md §15): snapshot publication from
// the rescreen loop into internal/serve, the /v1/subscribe SSE and
// long-poll endpoints, the /healthz staleness gate, the /metrics
// Prometheus exporter, and the per-route instrumentation + admission
// middleware every registered route passes through.

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	satconj "repro"
	"repro/internal/observability"
	"repro/internal/pool"
	"repro/internal/serve"
)

// serverMetrics bundles every series the handler feeds. Static series are
// created up front; per-route series on route registration; scrape-time
// funcs bind to the handler in bindCollectors.
type serverMetrics struct {
	reg *observability.Registry

	snapshotVersion      *observability.Gauge
	snapshotConjunctions *observability.Gauge
	snapshotPublishes    *observability.Counter
	fanoutLag            *observability.Histogram
	rescreenRuns         *observability.CounterVec
	rescreenFailures     *observability.Counter
	rescreenSeconds      *observability.Histogram
	rescreenPhase        *observability.CounterVec
	rescreenSort         *observability.Counter
	rescreenCandidates   *observability.CounterVec
	rescreenTracked      *observability.Gauge
	rescreenTrackBytes   *observability.Gauge
	lastRescreen         *observability.Gauge
	httpRequests         *observability.CounterVec

	mu         sync.Mutex
	phaseByKey map[string]*observability.Counter // rescreen phase fast path
}

func newServerMetrics(reg *observability.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg, phaseByKey: make(map[string]*observability.Counter)}
	m.snapshotVersion = reg.NewGauge("conjserver_snapshot_version",
		"Catalogue version of the published conjunction snapshot.", nil)
	m.snapshotConjunctions = reg.NewGauge("conjserver_snapshot_conjunctions",
		"Conjunctions in the published snapshot.", nil)
	m.snapshotPublishes = reg.NewCounter("conjserver_snapshot_publishes_total",
		"Snapshots published by the rescreen loop.", nil)
	m.fanoutLag = reg.NewHistogram("conjserver_fanout_lag_seconds",
		"Delay from snapshot publication to event enqueue per subscriber.", nil, nil)
	m.rescreenRuns = reg.NewCounterVec("conjserver_rescreen_runs_total",
		"Completed rescreen passes by mode (full|delta).", []string{"mode"})
	m.rescreenFailures = reg.NewCounter("conjserver_rescreen_failures_total",
		"Rescreen passes that ended in an error or cancellation.", nil)
	m.rescreenSeconds = reg.NewHistogram("conjserver_rescreen_seconds",
		"Wall time of completed rescreen passes.", nil, nil)
	m.rescreenPhase = reg.NewCounterVec("conjserver_rescreen_phase_seconds_total",
		"Cumulative rescreen wall time by pipeline phase.", []string{"phase"})
	m.rescreenSort = reg.NewCounter("conjserver_rescreen_sort_seconds_total",
		"Cumulative rescreen wall time in the scan's serial sort + group: a share of the detection phase's seconds.", nil)
	m.rescreenCandidates = reg.NewCounterVec("conjserver_rescreen_candidates_total",
		"Cumulative rescreen (pair, step) candidates by stage: grid (the grid's, c′), radial (past the gate's radial test) and gated (past its motion test too).", []string{"stage"})
	m.rescreenTracked = reg.NewGauge("conjserver_rescreen_tracked_objects",
		"Objects whose cells the last rescreen pass read from the key track instead of solving.", nil)
	m.rescreenTrackBytes = reg.NewGauge("conjserver_rescreen_track_bytes",
		"Size of the key track the last rescreen pass read and wrote.", nil)
	m.lastRescreen = reg.NewGauge("conjserver_last_rescreen_timestamp_seconds",
		"Unix time of the last successful rescreen pass.", nil)
	m.httpRequests = reg.NewCounterVec("conjserver_http_requests_total",
		"HTTP requests by route pattern and status code.", []string{"route", "code"})
	return m
}

// bindCollectors registers the scrape-time readers that need the fully
// assembled handler (hub, catalogue, store, admission, shared pool).
func (m *serverMetrics) bindCollectors(h *Handler) {
	reg := m.reg
	reg.NewGaugeFunc("conjserver_snapshot_age_seconds",
		"Age of the published snapshot (0 before the first publish).", nil, func() float64 {
			if snap := h.hub.Current(); snap != nil {
				return snap.Age(time.Now()).Seconds()
			}
			return 0
		})
	reg.NewGaugeFunc("conjserver_subscribers",
		"Currently connected subscription consumers.", nil, func() float64 {
			return float64(h.hub.Stats().Subscribers)
		})
	reg.NewCounterFunc("conjserver_events_delivered_total",
		"Conjunction events enqueued to subscribers.", nil, func() float64 {
			return float64(h.hub.Stats().Delivered)
		})
	reg.NewCounterFunc("conjserver_events_dropped_total",
		"Conjunction events lost to slow-consumer eviction.", nil, func() float64 {
			return float64(h.hub.Stats().Dropped)
		})
	reg.NewCounterFunc("conjserver_subscriber_evictions_total",
		"Subscribers evicted for falling behind.", nil, func() float64 {
			return float64(h.hub.Stats().Evicted)
		})
	if h.catalog != nil {
		reg.NewGaugeFunc("conjserver_catalog_version",
			"Current catalogue version.", nil, func() float64 {
				return float64(h.catalog.Version())
			})
		reg.NewGaugeFunc("conjserver_catalog_objects",
			"Objects in the current catalogue revision.", nil, func() float64 {
				return float64(h.catalog.Latest().Len())
			})
	}
	if h.store != nil {
		reg.NewGaugeFunc("conjserver_store_runs",
			"Runs persisted in the conjunction store.", nil, func() float64 {
				return float64(h.store.Len())
			})
	}
	if h.admission != nil {
		reg.NewCounterFunc("conjserver_admission_rejected_total",
			"Requests denied by per-client admission control.", nil, func() float64 {
				return float64(h.admission.Rejected())
			})
		reg.NewGaugeFunc("conjserver_admission_clients",
			"Client token buckets currently tracked.", nil, func() float64 {
				return float64(h.admission.Clients())
			})
	}
	poolCounter := func(read func(pool.Stats) int64) func() float64 {
		return func() float64 { return float64(read(pool.Default.Stats())) }
	}
	reg.NewCounterFunc("conjserver_pool_gets_total",
		"Buffer acquisitions from the shared screening pool.", nil,
		poolCounter(func(s pool.Stats) int64 { return s.Gets }))
	reg.NewCounterFunc("conjserver_pool_puts_total",
		"Buffer returns to the shared screening pool.", nil,
		poolCounter(func(s pool.Stats) int64 { return s.Puts }))
	reg.NewCounterFunc("conjserver_pool_hits_total",
		"Pool acquisitions satisfied by a pooled buffer.", nil,
		poolCounter(func(s pool.Stats) int64 { return s.Hits }))
	reg.NewGaugeFunc("conjserver_pool_outstanding",
		"Pool buffers currently checked out.", nil, func() float64 {
			return float64(pool.Default.Stats().Outstanding())
		})
}

// observePhases folds one pass's phase breakdown and candidate counts into
// the cumulative counters, caching vec children so the per-pass cost is a map
// read plus an atomic add.
func (m *serverMetrics) observePhases(stats satconj.PhaseStats) {
	for _, ps := range stats.PhaseSeconds() {
		m.mu.Lock()
		c := m.phaseByKey[ps.Name]
		if c == nil {
			c = m.rescreenPhase.With(ps.Name)
			m.phaseByKey[ps.Name] = c
		}
		m.mu.Unlock()
		c.Add(ps.Seconds)
	}
	m.rescreenSort.Add(stats.Sort.Seconds())
	m.rescreenCandidates.With("grid").Add(float64(stats.GridCandidates))
	m.rescreenCandidates.With("radial").Add(float64(stats.CandidatePairs + stats.MotionGated))
	m.rescreenCandidates.With("gated").Add(float64(stats.CandidatePairs))
}

// routeMetrics instruments one registered route: a latency histogram and
// per-status-code request counters, resolved by integer code on the hot
// path so the itoa + vec lookup happens once per (route, code).
type routeMetrics struct {
	route string
	hist  *observability.Histogram
	vec   *observability.CounterVec
	mu    sync.Mutex
	codes map[int]*observability.Counter
}

func (m *serverMetrics) newRouteMetrics(route string) *routeMetrics {
	rm := &routeMetrics{
		route: route,
		hist: m.reg.NewHistogram("conjserver_http_request_seconds",
			"HTTP request latency by route pattern.",
			observability.Labels{"route": route}, nil),
		vec:   m.httpRequests,
		codes: make(map[int]*observability.Counter),
	}
	return rm
}

func (rm *routeMetrics) observe(code int, elapsed time.Duration) {
	rm.hist.Observe(elapsed.Seconds())
	rm.mu.Lock()
	c := rm.codes[code]
	if c == nil {
		c = rm.vec.With(rm.route, strconv.Itoa(code))
		rm.codes[code] = c
	}
	rm.mu.Unlock()
	c.Inc()
}

// statusWriter records the response code for instrumentation. Unwrap keeps
// http.ResponseController (and with it the SSE/NDJSON flush paths)
// working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// route registers pattern with instrumentation and (for admit routes)
// admission control. Every endpoint goes through here so /metrics sees
// all traffic; only read endpoints opt into rate limiting — /v1/health,
// /healthz and /metrics stay exempt so load balancers and scrapers are
// never throttled away from the signals that matter most under overload.
func (h *Handler) route(pattern string, admit bool, fn http.HandlerFunc) {
	rm := h.metrics.newRouteMetrics(pattern)
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriter{ResponseWriter: w}
		if admit && h.admission != nil {
			if ok, retry := h.admission.Allow(clientKey(r)); !ok {
				secs := int(retry / time.Second)
				if secs < 1 {
					secs = 1
				}
				sw.Header().Set("Retry-After", strconv.Itoa(secs))
				writeJSON(&sw, http.StatusTooManyRequests,
					errorJSON{Error: "rate limit exceeded; retry after " + strconv.Itoa(secs) + "s"})
				rm.observe(sw.code(), time.Since(start))
				return
			}
		}
		fn(&sw, r)
		rm.observe(sw.code(), time.Since(start))
	})
}

// clientKey identifies a client for admission: the connection's source IP
// (proxies that aggregate many clients behind one IP should front their
// own limiter — trusting forwarded headers here would let any client
// mint fresh buckets at will).
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// publishRescreen is the Rescreener's publication hook: it freezes the
// pass result into an immutable snapshot, installs it for readers,
// fans out fresh events, and records the pass in the exporter.
func (h *Handler) publishRescreen(version uint64, epoch time.Time, objects int, incremental bool, res *satconj.Result, started time.Time) {
	now := time.Now()
	snap := serve.NewSnapshot(version, epoch, now, objects, incremental, res.Conjunctions)
	h.hub.Publish(snap)

	m := h.metrics
	m.snapshotVersion.Set(float64(version))
	m.snapshotConjunctions.Set(float64(len(res.Conjunctions)))
	m.snapshotPublishes.Inc()
	mode := "full"
	if incremental {
		mode = "delta"
	}
	m.rescreenRuns.With(mode).Inc()
	m.rescreenSeconds.Observe(now.Sub(started).Seconds())
	m.observePhases(res.Stats)
	m.rescreenTracked.Set(float64(res.Stats.TrackedObjects))
	m.rescreenTrackBytes.Set(float64(res.Stats.TrackBytes))
	m.lastRescreen.Set(float64(now.UnixNano()) / float64(time.Second))
	h.lastRescreenNano.Store(now.UnixNano())
}

// markRescreenChecked records a rescreen-loop heartbeat without a new
// snapshot: the loop looked at the catalogue and confirmed the published
// snapshot still reflects it.
func (h *Handler) markRescreenChecked() {
	h.lastRescreenNano.Store(time.Now().UnixNano())
}

// Snapshot returns the currently published conjunction snapshot (nil
// before the first rescreen pass). Exposed for wiring and tests.
func (h *Handler) Snapshot() *serve.Snapshot { return h.hub.Current() }

// Drain closes the subscription hub: every SSE stream and long-poll
// waiter ends now, so http.Server.Shutdown stops waiting on them. Call it
// when shutdown begins, before the drain deadline starts ticking.
// Idempotent.
func (h *Handler) Drain() { h.hub.Close() }

// HealthzResponse is the GET /healthz reply: liveness plus the staleness
// signals a load balancer gates on.
type HealthzResponse struct {
	Status               string  `json:"status"` // "ok" | "stale"
	CatalogVersion       uint64  `json:"catalog_version,omitempty"`
	CatalogObjects       int     `json:"catalog_objects"`
	StoreRuns            int     `json:"store_runs"`
	SnapshotVersion      uint64  `json:"snapshot_version"`
	SnapshotConjunctions int     `json:"snapshot_conjunctions"`
	SnapshotAgeSeconds   float64 `json:"snapshot_age_seconds,omitempty"`
	LastRescreenAge      float64 `json:"last_rescreen_age_seconds,omitempty"`
	Subscribers          int     `json:"subscribers"`
	StaleAfterSeconds    float64 `json:"stale_after_seconds,omitempty"`
}

// healthz reports readiness: 200 while fresh, 503 once the rescreen
// heartbeat is older than Config.StaleAfter (or no snapshot exists while
// staleness gating is on), so a load balancer drains a wedged replica
// instead of serving stale conjunctions from it. The heartbeat advances
// on every successful pass *and* on every pass that confirms the
// catalogue unchanged — an idle replica is current, not stale; only a
// loop that stopped checking (wedged, crashed, or failing every pass)
// ages out. /v1/health remains pure liveness.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	out := HealthzResponse{Status: "ok", StaleAfterSeconds: h.staleAfter.Seconds()}
	if h.catalog != nil {
		out.CatalogVersion = uint64(h.catalog.Version())
		out.CatalogObjects = h.catalog.Latest().Len()
	}
	if h.store != nil {
		out.StoreRuns = h.store.Len()
	}
	out.Subscribers = h.hub.Stats().Subscribers
	snap := h.hub.Current()
	if snap != nil {
		out.SnapshotVersion = snap.Version
		out.SnapshotConjunctions = len(snap.Conjunctions)
		out.SnapshotAgeSeconds = snap.Age(now).Seconds()
	}
	if last := h.lastRescreenNano.Load(); last != 0 {
		out.LastRescreenAge = now.Sub(time.Unix(0, last)).Seconds()
	}
	status := http.StatusOK
	if h.staleAfter > 0 {
		fresh := time.Duration(-1)
		if snap != nil {
			fresh = snap.Age(now)
		}
		if last := h.lastRescreenNano.Load(); last != 0 {
			fresh = now.Sub(time.Unix(0, last))
		}
		if fresh < 0 || fresh > h.staleAfter {
			out.Status = "stale"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, out)
}
