package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"rwskit/internal/core"
)

// This file is the v1 API contract layer: the machine-readable error
// envelope every non-2xx response carries, and the conditional-GET
// (ETag / If-None-Match / If-Modified-Since) helpers the cache-validator
// plane is built from. Handlers never spell a status+code pair by hand;
// they go through the helper table below, so the envelope cannot drift
// per endpoint.

// The machine-readable error codes. Clients branch on these, never on
// the human-readable error text (which is free to change).
const (
	// codeBadRequest: the request shape is wrong — missing or conflicting
	// parameters, malformed values, an unknown query key under strict
	// params, an undecodable body.
	codeBadRequest = "bad_request"
	// codeNotFound: no such endpoint.
	codeNotFound = "not_found"
	// codeVersionNotFound: a well-formed version=/as_of=/diff spec that
	// the store does not retain.
	codeVersionNotFound = "version_not_found"
	// codeBatchTooLarge: a batch carried more than maxBatchPairs entries.
	codeBatchTooLarge = "batch_too_large"
	// codeBodyTooLarge: the request body exceeded maxBatchBody.
	codeBodyTooLarge = "body_too_large"
	// codeMethodNotAllowed: wrong HTTP method for the endpoint.
	codeMethodNotAllowed = "method_not_allowed"
	// codeInternal: the server failed to encode its own response.
	codeInternal = "internal"
)

// writeError writes the JSON error envelope: a human-readable message
// plus the machine-readable code.
//
//rws:envelope
func writeError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	writeJSON(w, r, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeNotModified answers a conditional request whose validator still
// matches: 304, no body, headers already set by the caller.
//
//rws:envelope
func writeNotModified(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNotModified)
}

// etagMatches reports whether any entry of an If-None-Match header slice
// matches the snapshot's strong validator. Each header value may be a
// comma-separated list; weak-prefixed (`W/"..."`) entries compare by the
// quoted part (If-None-Match uses weak comparison per RFC 9110 §13.1.2),
// and `*` matches any current representation. Runs on every conditional
// query, so it scans without allocating (strings.Cut, TrimSpace, and
// TrimPrefix all return subslices).
//
//rws:hotpath
func etagMatches(values []string, etag string) bool {
	for i := 0; i < len(values); i++ {
		v := values[i]
		// Fast case first: a follower or cache echoes our ETag verbatim.
		if v == etag || v == "*" {
			return true
		}
		for v != "" {
			var item string
			item, v, _ = strings.Cut(v, ",")
			item = strings.TrimSpace(item)
			item = strings.TrimPrefix(item, "W/")
			if item == etag || item == "*" {
				return true
			}
		}
	}
	return false
}

// conditionalDone installs the snapshot's strong validator on the
// response and answers a still-matching conditional request with 304;
// it reports true when the 304 was written and the handler is done.
// If-None-Match wins when present (RFC 9110 §13.2.2 evaluation order);
// otherwise If-Modified-Since is compared with the resolved version's
// as-of time. Called after request validation (a malformed request must
// stay 400: preconditions apply only to requests that would otherwise
// succeed) and before the body is encoded, so a revalidation hit skips
// the encode entirely.
func (s *Server) conditionalDone(w http.ResponseWriter, r *http.Request, snap *Snapshot, ver core.Version) bool {
	w.Header()["Etag"] = snap.etagHeader
	if inm, ok := r.Header["If-None-Match"]; ok {
		if !etagMatches(inm, snap.etag) {
			return false
		}
	} else if ims := r.Header["If-Modified-Since"]; len(ims) == 0 || !s.unmodifiedSince(ims[0], snap, ver) {
		return false
	}
	writeNotModified(w)
	return true
}

// unmodifiedSince reports whether the version a request resolved to is
// as of no later than an If-Modified-Since date, at second granularity
// (HTTP dates carry no sub-second precision). An unversioned request
// resolved lock-free and carries a zero descriptor, so the store is
// asked for it here, off the common path. An unparseable date, a version
// with no as-of time, or a snapshot evicted since resolution counts as
// modified.
func (s *Server) unmodifiedSince(ims string, snap *Snapshot, ver core.Version) bool {
	if ver.Hash == "" {
		_, ver, _ = s.store.ByHash(snap.hash)
	}
	t, err := http.ParseTime(ims)
	return err == nil && !ver.AsOf.IsZero() && !ver.AsOf.Truncate(time.Second).After(t)
}
