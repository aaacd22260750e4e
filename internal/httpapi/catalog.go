package httpapi

// Catalogue endpoints for continuous operation: the service holds a
// versioned population (internal/catalog) that operators evolve with
// deltas instead of re-uploading the world. Every applied delta advances
// the catalogue version; the background rescreener (rescreen.go) then
// re-screens incrementally against the dirty set.

import (
	"fmt"
	"net/http"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/orbit"
)

// CatalogInfo is the GET /v1/catalog reply.
type CatalogInfo struct {
	Version uint64    `json:"version"`
	Epoch   time.Time `json:"epoch"`
	Objects int       `json:"objects"`
}

// DeltaRequest is the POST /v1/catalog/delta body. IDs may appear in at
// most one of the three lists; adds must be new IDs, updates and removes
// must name existing ones.
type DeltaRequest struct {
	// Epoch re-references the catalogue's elements; omitted keeps the
	// previous revision's epoch.
	Epoch   *time.Time     `json:"epoch,omitempty"`
	Adds    []ElementsJSON `json:"adds,omitempty"`
	Updates []ElementsJSON `json:"updates,omitempty"`
	Removes []int32        `json:"removes,omitempty"`
}

// DeltaResponse reports the revision the delta produced.
type DeltaResponse struct {
	Version uint64 `json:"version"`
	Objects int    `json:"objects"`
	Dirty   int    `json:"dirty"`   // IDs added or updated
	Removed int    `json:"removed"` // IDs removed
}

// noCatalog is the shared reply when the server runs stateless.
func (h *Handler) noCatalog(w http.ResponseWriter) bool {
	if h.catalog != nil {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "no catalogue attached (start the server with a catalogue to use continuous mode)"})
	return true
}

func (h *Handler) catalogInfo(w http.ResponseWriter, _ *http.Request) {
	if h.noCatalog(w) {
		return
	}
	rev := h.catalog.Latest()
	writeJSON(w, http.StatusOK, CatalogInfo{
		Version: uint64(rev.Version()),
		Epoch:   rev.Epoch(),
		Objects: rev.Len(),
	})
}

func (h *Handler) catalogDelta(w http.ResponseWriter, r *http.Request) {
	if h.noCatalog(w) {
		return
	}
	var req DeltaRequest
	if !h.decodeBody(w, r, &req) {
		return
	}
	if len(req.Adds) == 0 && len(req.Updates) == 0 && len(req.Removes) == 0 && req.Epoch == nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty delta: supply adds, updates, removes, or epoch"})
		return
	}
	d := catalog.Delta{Removes: req.Removes}
	if req.Epoch != nil {
		d.Epoch = *req.Epoch
	}
	var err error
	if d.Adds, err = toSatellites(req.Adds, "adds"); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error()})
		return
	}
	if d.Updates, err = toSatellites(req.Updates, "updates"); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error()})
		return
	}
	if grown := h.catalog.Latest().Len() + len(d.Adds); grown > h.maxObjects {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorJSON{Error: fmt.Sprintf("catalogue would grow to %d objects, server limit is %d", grown, h.maxObjects)})
		return
	}
	rev, err := h.catalog.ApplyDelta(d)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, DeltaResponse{
		Version: uint64(rev.Version()),
		Objects: rev.Len(),
		Dirty:   len(d.Adds) + len(d.Updates),
		Removed: len(d.Removes),
	})
}

// toSatellites validates and converts one delta list.
func toSatellites(list []ElementsJSON, kind string) ([]satconj.Satellite, error) {
	if len(list) == 0 {
		return nil, nil
	}
	sats := make([]satconj.Satellite, 0, len(list))
	for i, e := range list {
		s, err := satconj.NewSatellite(e.ID, orbit.Elements{
			SemiMajorAxis: e.SemiMajorAxis,
			Eccentricity:  e.Eccentricity,
			Inclination:   e.Inclination,
			RAAN:          e.RAAN,
			ArgPerigee:    e.ArgPerigee,
			MeanAnomaly:   e.MeanAnomaly,
		})
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", kind, i, err)
		}
		sats = append(sats, s)
	}
	return sats, nil
}
