package serve

import (
	"net/http"
	"time"
)

// handleList is the replication export: GET /v1/list serves the
// snapshot's canonical list JSON — the exact bytes core.ParseJSON
// round-trips — with the cache validators that make a serve node an
// origin for other serve nodes. A follower started as
// `rws-serve -list http://leader/v1/list -poll 1s` tracks this endpoint
// through the stock source.HTTPSource conditional-GET loop: the strong
// ETag is the list content hash, so an unchanged leader answers 304 from
// etagMatches without touching the body, and the X-RWS-* headers carry
// the version provenance a follower needs to detect it is following and
// to measure swap-propagation lag.
//
// Always strict-params: this endpoint is new in the v1 contract, so
// unknown keys were never silently accepted and need no legacy mode.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	var q query
	scanQuery(r.URL.RawQuery, &q)
	snap, ver, ok := s.resolveQuery(w, r, &q, paramsVersioned, true)
	if !ok {
		return
	}
	if ver.Hash == "" {
		// The export's headers need the version descriptor: take it
		// together with the current snapshot as one consistent pair.
		snap, ver, _ = s.store.ByHash("")
	}
	h := w.Header()
	// no-cache (not no-store): caches may hold the body but must
	// revalidate — exactly the 304 loop followers run. A poll interval is
	// the freshness contract here, not a TTL.
	h.Set("Cache-Control", "public, no-cache")
	h.Set("Last-Modified", ver.AsOf.UTC().Format(http.TimeFormat))
	h.Set("X-RWS-Version", snap.hash)
	h.Set("X-RWS-As-Of", ver.AsOf.UTC().Format(time.RFC3339Nano))
	h.Set("X-RWS-Swapped-At", ver.ObservedAt.UTC().Format(time.RFC3339Nano))
	if s.conditionalDone(w, r, snap, ver) {
		return
	}
	if snap.respList != nil {
		writeBody(w, r, http.StatusOK, q.pretty(), snap.respList)
		return
	}
	// Under the list-dropped tier the export is encoded per request;
	// *core.List marshals to the same canonical bytes respList holds.
	writeJSON(w, r, http.StatusOK, snap.list)
}
