// Package httpapi exposes the screening library as a JSON-over-HTTP
// service — the deployment form a conjunction-assessment provider (the
// paper's SSA context, §I/§III) would actually operate: catalogue in,
// conjunction events out, with the variant and screening parameters chosen
// per request.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/observability"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/store"
)

// Version is reported by GET /v1/version.
const Version = "1.0.0"

// defaultMaxBody bounds request bodies (a 1M-object population in JSON is
// ~200 MB; default limit is far below that — operators batch-load via TLE
// files, not JSON).
const defaultMaxBody = 64 << 20

// ElementsJSON is one object's orbit in the request body.
type ElementsJSON struct {
	ID            int32   `json:"id"`
	SemiMajorAxis float64 `json:"semi_major_axis_km"`
	Eccentricity  float64 `json:"eccentricity"`
	Inclination   float64 `json:"inclination_rad"`
	RAAN          float64 `json:"raan_rad"`
	ArgPerigee    float64 `json:"arg_perigee_rad"`
	MeanAnomaly   float64 `json:"mean_anomaly_rad"`
}

// GenerateJSON asks the server to synthesise a population instead of
// supplying one.
type GenerateJSON struct {
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
}

// ScreenRequest is the POST /v1/screen body.
type ScreenRequest struct {
	// Satellites supplies the population explicitly…
	Satellites []ElementsJSON `json:"satellites,omitempty"`
	// …or Generate synthesises one server-side (exactly one of the two).
	Generate *GenerateJSON `json:"generate,omitempty"`

	Variant          string  `json:"variant,omitempty"` // a registered variant name; GET /v1/variants lists them
	ThresholdKm      float64 `json:"threshold_km,omitempty"`
	DurationSeconds  float64 `json:"duration_seconds"`
	SecondsPerSample float64 `json:"seconds_per_sample,omitempty"`
	UseJ2            bool    `json:"use_j2,omitempty"`
	// EventTolSeconds merges multi-step duplicates; 0 keeps raw
	// conjunctions.
	EventTolSeconds float64 `json:"event_tol_seconds,omitempty"`
	// SigmaKm, when positive, widens the screen by per-object position
	// uncertainty and adds collision probabilities to the response.
	SigmaKm float64 `json:"sigma_km,omitempty"`
	// HardBodyKm is the combined hard-body radius for the probability
	// computation; 0 selects 0.01 km.
	HardBodyKm float64 `json:"hard_body_km,omitempty"`
	// TimeoutSeconds bounds the screening's wall time; a run past it is
	// cancelled through the context plumbing (504 on /v1/screen, an error
	// event on /v1/screen/stream). 0 means no server-side deadline beyond
	// the client's own patience (client disconnect always cancels).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// ConjunctionJSON is one reported event.
type ConjunctionJSON struct {
	A   int32   `json:"a"`
	B   int32   `json:"b"`
	TCA float64 `json:"tca_seconds"`
	PCA float64 `json:"pca_km"`
	// Pc and Bucket are filled when the request carried sigma_km.
	Pc     float64 `json:"pc,omitempty"`
	Bucket string  `json:"bucket,omitempty"`
}

// ScreenResponse is the POST /v1/screen reply.
type ScreenResponse struct {
	Variant        string            `json:"variant"`
	Backend        string            `json:"backend"`
	Objects        int               `json:"objects"`
	Conjunctions   []ConjunctionJSON `json:"conjunctions"`
	UniquePairs    int               `json:"unique_pairs"`
	CandidatePairs int               `json:"candidate_pairs"`
	// PrefilterRejected counts candidates the analytic minimum-distance
	// pre-filter proved conjunction-free; Refinements counts the survivors
	// that went to Brent minimisation.
	PrefilterRejected int     `json:"prefilter_rejected"`
	Refinements       int     `json:"refinements"`
	ElapsedSeconds    float64 `json:"elapsed_seconds"`
	// StoredRunID is set when the server persists runs: the ID to query
	// this run's conjunctions back via GET /v1/conjunctions?run=….
	StoredRunID uint64 `json:"stored_run_id,omitempty"`
}

// errorJSON is every error reply's shape.
type errorJSON struct {
	Error string `json:"error"`
}

// Handler serves the API.
type Handler struct {
	mux *http.ServeMux
	// MaxObjects bounds accepted population sizes (0 = 100,000).
	maxObjects int
	// maxBody bounds request body bytes.
	maxBody int64
	// runs tracks in-flight and recently finished screening runs.
	runs *runRegistry
	// catalog, when non-nil, backs the /v1/catalog endpoints and the
	// background rescreener (continuous-operation mode).
	catalog *catalog.Catalog
	// store, when non-nil, persists every completed screening run and backs
	// GET /v1/conjunctions; run history then survives restarts.
	store *store.Store
	// hub owns snapshot publication and subscription fan-out (always
	// non-nil; an idle hub on stateless servers costs nothing).
	hub *serve.Hub
	// admission rate-limits read endpoints per client; nil = unlimited.
	admission *serve.Admission
	// metrics is the /metrics exporter state.
	metrics *serverMetrics
	// heartbeat paces SSE keepalive comments.
	heartbeat time.Duration
	// staleAfter gates /healthz readiness on snapshot age; 0 disables.
	staleAfter time.Duration
	// lastRescreenNano is the wall time of the last successful rescreen
	// pass (UnixNano), 0 before the first.
	lastRescreenNano atomic.Int64
	// hdrCache holds the current snapshot's rendered response headers.
	hdrCache atomic.Pointer[snapHeaders]
}

// RateLimit re-exports the admission configuration so callers wiring a
// server need only this package.
type RateLimit = serve.RateLimit

// Config assembles a Handler for continuous operation. The zero value is a
// valid stateless configuration (no catalogue, no persistence).
type Config struct {
	// MaxObjects bounds accepted population sizes (≤ 0 selects 100,000).
	MaxObjects int
	// MaxBody bounds request body bytes (≤ 0 selects the 64 MiB default);
	// bodies beyond it get 413.
	MaxBody int64
	// RecentRuns caps how many finished runs GET /v1/runs keeps visible
	// in memory (≤ 0 selects 32).
	RecentRuns int
	// Catalog enables the /v1/catalog endpoints.
	Catalog *catalog.Catalog
	// Store enables persistence and GET /v1/conjunctions.
	Store *store.Store
	// RateLimit configures per-client admission on read endpoints; the
	// zero value disables rate limiting.
	RateLimit serve.RateLimit
	// MaxSubscribers caps concurrent /v1/subscribe consumers (≤ 0 selects
	// 1024).
	MaxSubscribers int
	// SubscriberQueue sets each subscriber's event buffer; a consumer that
	// lets it overflow is evicted (≤ 0 selects 64).
	SubscriberQueue int
	// Heartbeat paces SSE keepalive comments (≤ 0 selects 15s).
	Heartbeat time.Duration
	// StaleAfter makes /healthz answer 503 once the published snapshot is
	// older than this (or absent); 0 disables staleness gating.
	StaleAfter time.Duration
}

// NewServer returns a handler wired for continuous operation per cfg.
func NewServer(cfg Config) *Handler {
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = 100000
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	h := &Handler{
		mux:        http.NewServeMux(),
		maxObjects: cfg.MaxObjects,
		maxBody:    cfg.MaxBody,
		runs:       newRunRegistry(cfg.RecentRuns),
		catalog:    cfg.Catalog,
		store:      cfg.Store,
		metrics:    newServerMetrics(observability.NewRegistry()),
		admission:  serve.NewAdmission(cfg.RateLimit),
		heartbeat:  cfg.Heartbeat,
		staleAfter: cfg.StaleAfter,
	}
	h.hub = serve.NewHub(serve.HubConfig{
		MaxSubscribers: cfg.MaxSubscribers,
		Queue:          cfg.SubscriberQueue,
		OnDeliver:      func(lag time.Duration) { h.metrics.fanoutLag.Observe(lag.Seconds()) },
	})
	h.metrics.bindCollectors(h)

	h.route("GET /v1/health", false, h.health)
	h.route("GET /v1/version", false, h.version)
	h.route("GET /v1/pool", false, h.poolStats)
	h.route("GET /v1/runs", true, h.listRuns)
	h.route("GET /v1/variants", false, h.listVariants)
	h.route("POST /v1/screen", false, h.screen)
	h.route("POST /v1/screen/stream", false, h.screenStream)
	h.route("GET /v1/catalog", true, h.catalogInfo)
	h.route("POST /v1/catalog/delta", false, h.catalogDelta)
	h.route("GET /v1/conjunctions", true, h.queryConjunctions)
	h.route("GET /v1/subscribe", true, h.subscribe)
	h.route("GET /healthz", false, h.healthz)
	h.mux.Handle("GET /metrics", h.metrics.reg.Handler())
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) version(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"version": Version,
		"paper":   "Satellite Collision Detection using Spatial Data Structures (IPPS 2023)",
	})
}

// poolStats reports the shared buffer pool's counters — screening requests
// draw their grid/pair/state structures from pool.Default, so outstanding
// should return to 0 whenever the server is idle.
func (h *Handler) poolStats(w http.ResponseWriter, _ *http.Request) {
	st := pool.Default.Stats()
	writeJSON(w, http.StatusOK, map[string]int64{
		"gets":        st.Gets,
		"puts":        st.Puts,
		"hits":        st.Hits,
		"outstanding": st.Outstanding(),
	})
}

// VariantJSON is one GET /v1/variants entry: a registered screening variant
// and whether it accepts incremental re-screens, generated from the detector
// registry.
type VariantJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Baseline    bool   `json:"baseline,omitempty"`
	Default     bool   `json:"default,omitempty"`
	ScreenDelta bool   `json:"screen_delta"`
}

// listVariants reports the registered screening variants — the values the
// screen endpoints accept in the `variant` field.
func (h *Handler) listVariants(w http.ResponseWriter, _ *http.Request) {
	ds := satconj.Variants()
	out := make([]VariantJSON, len(ds))
	for i, d := range ds {
		out[i] = VariantJSON{
			Name:        string(d.Name),
			Description: d.Description,
			Baseline:    d.Baseline,
			Default:     d.Name == satconj.VariantHybrid,
			ScreenDelta: d.Incremental,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// prepareScreen decodes, validates, and materialises a screening request.
// On failure it writes the error reply and returns ok = false. Both the
// blocking and the streaming endpoint go through it, so the two accept
// exactly the same request shape.
func (h *Handler) prepareScreen(w http.ResponseWriter, r *http.Request) (req ScreenRequest, sats []satconj.Satellite, opts satconj.Options, ok bool) {
	if !h.decodeBody(w, r, &req) {
		return req, nil, opts, false
	}
	if status, err := validateScreenRequest(req); err != nil {
		writeJSON(w, status, errorJSON{Error: err.Error()})
		return req, nil, opts, false
	}
	sats, status, err := h.population(req)
	if err != nil {
		writeJSON(w, status, errorJSON{Error: err.Error()})
		return req, nil, opts, false
	}
	variant := satconj.Variant(strings.ToLower(req.Variant))
	if req.Variant == "" {
		variant = satconj.VariantHybrid
	}
	if _, found := satconj.LookupVariant(variant); !found {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: fmt.Sprintf(
			"unknown variant %q (registered: %s)", req.Variant, strings.Join(satconj.VariantNames(), ", "))})
		return req, nil, opts, false
	}
	opts = satconj.Options{
		Variant:          variant,
		ThresholdKm:      req.ThresholdKm,
		DurationSeconds:  req.DurationSeconds,
		SecondsPerSample: req.SecondsPerSample,
		UseJ2:            req.UseJ2,
	}
	if req.SigmaKm > 0 {
		opts.Uncertainty = satconj.UniformUncertainty(req.SigmaKm)
	}
	return req, sats, opts, true
}

// screenContext derives the run's context from the request: client
// disconnect cancels it, and an explicit timeout_seconds adds a deadline.
func screenContext(r *http.Request, req ScreenRequest) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if req.TimeoutSeconds > 0 {
		return context.WithTimeout(ctx, time.Duration(req.TimeoutSeconds*float64(time.Second)))
	}
	return context.WithCancel(ctx)
}

func (h *Handler) screen(w http.ResponseWriter, r *http.Request) {
	req, sats, opts, ok := h.prepareScreen(w, r)
	if !ok {
		return
	}
	ctx, cancel := screenContext(r, req)
	defer cancel()

	entry := h.runs.start(string(opts.Variant), len(sats))
	opts.Observer = entry.observer()

	start := time.Now()
	res, err := satconj.ScreenContext(ctx, sats, opts)
	if err != nil {
		h.finishError(w, entry, err)
		return
	}
	h.runs.finish(entry, RunCompleted, len(res.Conjunctions), "")
	conjs := res.Conjunctions
	if req.EventTolSeconds > 0 {
		conjs = res.Events(req.EventTolSeconds)
	}
	out := ScreenResponse{
		Variant:           string(res.Variant),
		Backend:           res.Backend,
		Objects:           len(sats),
		Conjunctions:      make([]ConjunctionJSON, len(conjs)),
		UniquePairs:       res.UniquePairs(),
		CandidatePairs:    res.Stats.CandidatePairs,
		PrefilterRejected: res.Stats.PrefilterRejected,
		Refinements:       res.Stats.Refinements,
		ElapsedSeconds:    time.Since(start).Seconds(),
	}
	for i, c := range conjs {
		out.Conjunctions[i] = h.conjunctionJSON(c, req)
	}
	// Persistence sits outside the screening hot path: the run is already
	// complete; a store failure degrades durability, not the reply.
	if h.store != nil {
		id, serr := h.store.Append(store.Run{
			StartedAt:    start.UTC(),
			Elapsed:      out.ElapsedSeconds,
			ThresholdKm:  opts.ThresholdKm,
			Duration:     opts.DurationSeconds,
			Objects:      len(sats),
			Variant:      string(res.Variant),
			Conjunctions: res.Conjunctions,
		})
		if serr == nil {
			out.StoredRunID = id
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// finishError seals a failed run in the registry and writes the matching
// error reply: 504 on a request deadline, nothing on a client disconnect
// (nobody is listening), 422 otherwise.
func (h *Handler) finishError(w http.ResponseWriter, entry *runEntry, err error) {
	h.runs.fail(entry, err)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: "screening exceeded timeout_seconds"})
	case errors.Is(err, context.Canceled):
	default:
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error()})
	}
}

// conjunctionJSON converts one conjunction, attaching the collision
// probability when the request carried sigma_km.
func (h *Handler) conjunctionJSON(c satconj.Conjunction, req ScreenRequest) ConjunctionJSON {
	cj := ConjunctionJSON{A: c.A, B: c.B, TCA: c.TCA, PCA: c.PCA}
	if req.SigmaKm > 0 {
		hardBody := req.HardBodyKm
		if hardBody <= 0 {
			hardBody = 0.01
		}
		if a, err := satconj.CollisionProbability(c, req.SigmaKm, req.SigmaKm, hardBody); err == nil {
			cj.Pc, cj.Bucket = a.Pc, a.Category
		}
	}
	return cj
}

// validateScreenRequest rejects parameter values the detectors would either
// error on later or silently coerce to defaults (a negative threshold would
// otherwise screen at the default 2 km — surprising, so it is refused).
func validateScreenRequest(req ScreenRequest) (int, error) {
	switch {
	case req.DurationSeconds <= 0:
		return http.StatusUnprocessableEntity, fmt.Errorf("duration_seconds must be positive, got %g", req.DurationSeconds)
	case req.ThresholdKm < 0:
		return http.StatusUnprocessableEntity, fmt.Errorf("threshold_km must not be negative, got %g", req.ThresholdKm)
	case req.SecondsPerSample < 0:
		return http.StatusUnprocessableEntity, fmt.Errorf("seconds_per_sample must not be negative, got %g", req.SecondsPerSample)
	case req.EventTolSeconds < 0:
		return http.StatusUnprocessableEntity, fmt.Errorf("event_tol_seconds must not be negative, got %g", req.EventTolSeconds)
	case req.SigmaKm < 0:
		return http.StatusUnprocessableEntity, fmt.Errorf("sigma_km must not be negative, got %g", req.SigmaKm)
	case req.TimeoutSeconds < 0:
		return http.StatusUnprocessableEntity, fmt.Errorf("timeout_seconds must not be negative, got %g", req.TimeoutSeconds)
	}
	return 0, nil
}

// population materialises the request's population.
func (h *Handler) population(req ScreenRequest) ([]satconj.Satellite, int, error) {
	switch {
	case req.Generate != nil && len(req.Satellites) > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("supply either satellites or generate, not both")
	case req.Generate != nil:
		if req.Generate.N <= 0 {
			return nil, http.StatusBadRequest, fmt.Errorf("generate.n must be positive, got %d", req.Generate.N)
		}
		if req.Generate.N > h.maxObjects {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("population %d exceeds server limit %d", req.Generate.N, h.maxObjects)
		}
		sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: req.Generate.N, Seed: req.Generate.Seed})
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		return sats, 0, nil
	case len(req.Satellites) > 0:
		if len(req.Satellites) > h.maxObjects {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("population %d exceeds server limit %d", len(req.Satellites), h.maxObjects)
		}
		sats, err := toSatellites(req.Satellites, "satellites")
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		return sats, 0, nil
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("request needs satellites or generate")
	}
}

// decodeBody decodes r's JSON body, at most maxBody bytes and no unknown
// fields, into v. On failure it writes the error reply — 413 past the limit,
// 400 otherwise — and returns false.
func (h *Handler) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorJSON{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
	default:
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad request body: " + err.Error()})
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
