package serve

import (
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"

	"rwskit/internal/core"
)

// This file is the one param grammar: every query endpoint reads its raw
// query once with scanQuery and resolves its version=/as_of= parameters
// through resolveQuery against a declared allowlist of supported keys,
// so the grammar cannot drift per handler and — under strict params — a
// typoed key (verison=, asof=) gets a bad_request envelope naming the
// supported keys instead of being silently ignored.

// The per-endpoint supported query keys, sorted (the order they are
// reported to clients in).
var (
	paramsSameSet   = []string{"a", "as_of", "b", "pairs", "pretty", "version"}
	paramsSet       = []string{"as_of", "pretty", "site", "version"}
	paramsPartition = []string{"as_of", "embedded", "policy", "pretty", "top", "version"}
	paramsVersioned = []string{"as_of", "pretty", "version"} // stats, list
	paramsDiff      = []string{"from", "pretty", "to"}
	paramsChurn     = []string{"from", "granularity", "pretty", "to", "top"}
	paramsPretty    = []string{"pretty"} // healthz, metrics, versions
)

// param indexes the query keys the scanner reads (paramNames).
type param uint8

const (
	pA param = iota
	pB
	pSite
	pTop
	pEmbedded
	pPolicy
	pPairs
	pVersion
	pAsOf
	pPretty
	numParams
)

// paramNames spells each scanned key, in param order.
var paramNames = [numParams]string{"a", "b", "site", "top", "embedded", "policy", "pairs", "version", "as_of", "pretty"}

// query is one request's scanned query string: the first value of each
// key the query endpoints read ("" when absent).
type query struct {
	vals [numParams]string
	seen uint16 // bit p is set once key p has appeared
}

// pretty reports whether the request opted into indented output
// (?pretty, ?pretty=1, ?pretty=true).
//
//rws:hotpath
//rws:allocfree
func (q *query) pretty() bool {
	v := q.vals[pPretty]
	return q.seen&(1<<pPretty) != 0 && (v == "" || v == "1" || v == "true")
}

// paramOf maps a decoded key to its param, or numParams for a key the
// query endpoints do not read.
//
//rws:hotpath
//rws:allocfree
func paramOf(k string) param {
	for p, name := range paramNames {
		if k == name {
			return param(p)
		}
	}
	return numParams
}

// nextSegment pops one key=value segment off a raw query and decodes it
// as url.ParseQuery does ('+' is a space, %XX escapes). ok is false for a
// segment ParseQuery drops: an empty one, a bad escape, or a raw ';'. The
// one exception is pairs=, whose documented pairs=a,b;c,d spelling keeps
// its raw ';' separators. Keys and values without escapes are substrings
// of raw, so a plain query decodes without allocating.
//
//rws:hotpath
func nextSegment(raw string) (k, v, rest string, ok bool) {
	seg, rest, _ := strings.Cut(raw, "&")
	if seg == "" {
		return "", "", rest, false
	}
	k, v, _ = strings.Cut(seg, "=")
	k, err := url.QueryUnescape(k)
	if err != nil || (k != "pairs" && strings.IndexByte(seg, ';') >= 0) {
		return "", "", rest, false
	}
	if v, err = url.QueryUnescape(v); err != nil {
		return "", "", rest, false
	}
	return k, v, rest, true
}

// scanQuery reads every key the query endpoints use from a raw query
// into q, first value winning per key, without building url.Values.
//
//rws:hotpath
func scanQuery(raw string, q *query) {
	for raw != "" {
		k, v, rest, ok := nextSegment(raw)
		raw = rest
		if !ok {
			continue
		}
		if p := paramOf(k); p < numParams && q.seen&(1<<p) == 0 {
			q.seen |= 1 << p
			q.vals[p] = v
		}
	}
}

// unknownKeys returns the distinct keys of a raw query outside
// supported, sorted.
func unknownKeys(raw string, supported []string) []string {
	var unknown []string
	for raw != "" {
		k, _, rest, ok := nextSegment(raw)
		raw = rest
		if ok && !slices.Contains(supported, k) && !slices.Contains(unknown, k) {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	return unknown
}

// checkParams rejects query keys outside supported with a bad_request
// envelope naming both the offenders and the allowlist. Enforcement is
// on when the endpoint demands it (strict: the new endpoints) or when
// the server-wide -strict-params mode is; otherwise unknown keys keep
// their historical ignore-silently behavior.
func (s *Server) checkParams(w http.ResponseWriter, r *http.Request, supported []string, strict bool) bool {
	if !strict && !s.strictParams.Load() {
		return true
	}
	unknown := unknownKeys(r.URL.RawQuery, supported)
	if len(unknown) == 0 {
		return true
	}
	writeError(w, r, http.StatusBadRequest, codeBadRequest,
		"unknown query parameter(s): %s (supported: %s)",
		strings.Join(unknown, ", "), strings.Join(supported, ", "))
	return false
}

// resolveQuery is the shared request-scope resolver: it validates the
// query against the endpoint's allowlist, then picks the snapshot the
// request is answered from. A request with neither version= nor as_of=
// takes the lock-free current pointer and a zero version descriptor
// (conditionalDone fetches the descriptor only when a date validator
// needs it); otherwise the named or as-of-resolved retained version and
// its descriptor. On failure it writes the error envelope and reports
// false. Successful resolution counts one per-version hit (a lock-free
// atomic add surfaced in /v1/metrics).
func (s *Server) resolveQuery(w http.ResponseWriter, r *http.Request, q *query, supported []string, strict bool) (*Snapshot, core.Version, bool) {
	if !s.checkParams(w, r, supported, strict) {
		return nil, core.Version{}, false
	}
	version, asOf := q.vals[pVersion], q.vals[pAsOf]
	var (
		snap *Snapshot
		ver  core.Version
		err  error
	)
	switch {
	case version != "" && asOf != "":
		badRequest(w, r, "use either version= or as_of=, not both")
		return nil, core.Version{}, false
	case version != "":
		snap, ver, err = s.store.ByHash(version)
	case asOf != "":
		t, ok := parseAsOf(asOf)
		if !ok {
			badRequest(w, r, "as_of %q: want 2006-01, 2006-01-02, or RFC 3339", asOf)
			return nil, core.Version{}, false
		}
		snap, ver, err = s.store.AsOf(t)
	default:
		snap = s.store.Current()
	}
	if err != nil {
		writeResolveError(w, r, err)
		return nil, core.Version{}, false
	}
	snap.requests.Add(1)
	return snap, ver, true
}
