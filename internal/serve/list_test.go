package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rwskit/internal/core"
)

// getWith issues a GET with extra headers and returns the response; the
// caller closes the body.
func getWith(t *testing.T, url string, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func currentSnap(t *testing.T, s *Server) *Snapshot {
	t.Helper()
	snap, _, err := s.store.ByHash("")
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestListExport: GET /v1/list serves the canonical list JSON with the
// cache validators that make a serve node an origin for followers — a
// strong ETag (the list content hash), Last-Modified, and the X-RWS-*
// replication provenance headers.
func TestListExport(t *testing.T) {
	s, ts := newTestServer(t)
	snap := currentSnap(t, s)

	resp := getWith(t, ts.URL+"/v1/list", nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Etag"), `"`+snap.hash+`"`; got != want {
		t.Errorf("ETag = %q, want %q", got, want)
	}
	if got := resp.Header.Get("Cache-Control"); got != "public, no-cache" {
		t.Errorf("Cache-Control = %q", got)
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Error("missing Last-Modified")
	}
	if got := resp.Header.Get("X-RWS-Version"); got != snap.hash {
		t.Errorf("X-RWS-Version = %q, want the snapshot hash", got)
	}
	if resp.Header.Get("X-RWS-As-Of") == "" || resp.Header.Get("X-RWS-Swapped-At") == "" {
		t.Error("missing X-RWS-As-Of / X-RWS-Swapped-At")
	}

	// The body is the canonical list serialization: it round-trips to the
	// same content hash the ETag advertises.
	parsed, err := core.ParseJSON(body)
	if err != nil {
		t.Fatalf("body does not parse as a list: %v", err)
	}
	if parsed.Hash() != snap.hash {
		t.Errorf("body hash = %s, want %s", parsed.Hash(), snap.hash)
	}

	// ?pretty=1 falls back to the live (indented) encode of the same list.
	resp = getWith(t, ts.URL+"/v1/list?pretty=1", nil)
	pretty, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pretty status = %d", resp.StatusCode)
	}
	if p, err := core.ParseJSON(pretty); err != nil || p.Hash() != snap.hash {
		t.Errorf("pretty body should parse to the same list (err=%v)", err)
	}
}

// TestListConditionalGet walks the validators a follower's conditional
// poll loop exercises: ETag match (strong, weak, wildcard), ETag miss,
// If-Modified-Since, and the RFC 9110 rule that If-None-Match wins.
func TestListConditionalGet(t *testing.T) {
	s, ts := newTestServer(t)
	snap := currentSnap(t, s)
	etag := `"` + snap.hash + `"`

	first := getWith(t, ts.URL+"/v1/list", nil)
	lastModified := first.Header.Get("Last-Modified")
	first.Body.Close()

	for _, tc := range []struct {
		name    string
		headers map[string]string
		status  int
	}{
		{"etag match", map[string]string{"If-None-Match": etag}, http.StatusNotModified},
		{"weak etag", map[string]string{"If-None-Match": "W/" + etag}, http.StatusNotModified},
		{"etag list", map[string]string{"If-None-Match": `"nope", ` + etag}, http.StatusNotModified},
		{"wildcard", map[string]string{"If-None-Match": "*"}, http.StatusNotModified},
		{"etag miss", map[string]string{"If-None-Match": `"deadbeef"`}, http.StatusOK},
		{"ims current", map[string]string{"If-Modified-Since": lastModified}, http.StatusNotModified},
		{"ims stale", map[string]string{"If-Modified-Since": "Mon, 01 Jan 2001 00:00:00 GMT"}, http.StatusOK},
		// Both validators present and If-None-Match misses: INM wins, the
		// date is not consulted.
		{"inm wins", map[string]string{"If-None-Match": `"deadbeef"`, "If-Modified-Since": lastModified}, http.StatusOK},
	} {
		resp := getWith(t, ts.URL+"/v1/list", tc.headers)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if tc.status == http.StatusNotModified {
			if len(body) != 0 {
				t.Errorf("%s: 304 carried a %d-byte body", tc.name, len(body))
			}
			if got := resp.Header.Get("Etag"); got != etag {
				t.Errorf("%s: 304 ETag = %q, want %q", tc.name, got, etag)
			}
		}
	}

	// A swap changes the list, so the old validator revalidates to a full
	// 200 under the new ETag — the follower's resync path.
	replacement, err := core.ParseJSON([]byte(`{"sets":[{
	  "primary": "https://example.com",
	  "associatedSites": ["https://example-blog.com"],
	  "rationaleBySite": {"https://example-blog.com": "same brand"}
	}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s.Swap(replacement)
	resp := getWith(t, ts.URL+"/v1/list", map[string]string{"If-None-Match": etag})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale etag after swap: status = %d, want 200", resp.StatusCode)
	}
	newTag := resp.Header.Get("Etag")
	if newTag == etag || newTag == "" {
		t.Errorf("post-swap ETag = %q, want a new validator", newTag)
	}

	// The superseded version stays addressable, under its own validator.
	resp = getWith(t, ts.URL+"/v1/list?version="+snap.hash[:12], nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version-pinned list: status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Etag"); got != etag {
		t.Errorf("version-pinned ETag = %q, want %q", got, etag)
	}
	if p, err := core.ParseJSON(body); err != nil || p.Hash() != snap.hash {
		t.Errorf("version-pinned body should be the old list (err=%v)", err)
	}
}

// TestConditionalGetOnQueryEndpoints: every snapshot-derived GET
// endpoint carries the snapshot's ETag and honours If-None-Match and
// If-Modified-Since before encoding a body.
func TestConditionalGetOnQueryEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	snap := currentSnap(t, s)
	etag := `"` + snap.hash + `"`
	for _, path := range []string{
		"/v1/sameset?a=bild.de&b=autobild.de",
		"/v1/set?site=webvisor.com",
		"/v1/partition?top=bild.de&embedded=autobild.de",
		"/v1/stats",
	} {
		resp := getWith(t, ts.URL+path, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Etag"); got != etag {
			t.Errorf("%s: ETag = %q, want %q", path, got, etag)
		}

		resp = getWith(t, ts.URL+path, map[string]string{"If-None-Match": etag})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("%s: conditional GET = %d with %d bytes, want bare 304", path, resp.StatusCode, len(body))
		}

		resp = getWith(t, ts.URL+path, map[string]string{"If-Modified-Since": "Mon, 01 Jan 2990 00:00:00 GMT"})
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("%s: If-Modified-Since after the as-of time = %d with %d bytes, want bare 304", path, resp.StatusCode, len(body))
		}

		resp = getWith(t, ts.URL+path, map[string]string{"If-None-Match": `"deadbeef"`})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: mismatched etag = %d, want 200", path, resp.StatusCode)
		}
	}

	// A malformed request stays an error even with a matching validator:
	// preconditions apply only to requests that would otherwise succeed.
	resp := getWith(t, ts.URL+"/v1/sameset?a=bild.de", map[string]string{"If-None-Match": etag})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed conditional request: status = %d, want 400", resp.StatusCode)
	}
}

// TestIfModifiedSinceIgnoresQueryShape: a date validator decides the
// same way whatever else the query carries — a no-op &pretty=0 must not
// turn If-Modified-Since on or off.
func TestIfModifiedSinceIgnoresQueryShape(t *testing.T) {
	_, ts := newTestServer(t)
	now := time.Now()
	for _, path := range []string{
		"/v1/sameset?a=bild.de&b=autobild.de",
		"/v1/set?site=webvisor.com",
		"/v1/partition?top=bild.de&embedded=autobild.de",
		"/v1/stats?",
	} {
		for _, shape := range []string{path, path + "&pretty=0"} {
			for _, tc := range []struct {
				ims  time.Time
				want int
			}{
				{now.Add(time.Hour), http.StatusNotModified},
				{now.Add(-time.Hour), http.StatusOK},
			} {
				resp := getWith(t, ts.URL+shape, map[string]string{"If-Modified-Since": tc.ims.UTC().Format(http.TimeFormat)})
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s with If-Modified-Since %s: status %d, want %d", shape, tc.ims.Sub(now), resp.StatusCode, tc.want)
				}
			}
		}
	}
}

// TestErrorEnvelopeCodes asserts the machine-readable code every non-2xx
// response carries alongside the human-readable message.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, ts := newTestServer(t)
	tooManyPairs := strings.Repeat("a.com,b.com;", maxBatchPairs) + "a.com,b.com"
	for _, tc := range []struct {
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{http.MethodGet, "/v1/sameset", "", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/v1/set", "", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/v1/partition?top=a.com&embedded=b.com&policy=bogus", "", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/v1/diff?from=deadbeef", "", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/nope", "", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/sameset?a=x&b=y&version=deadbeefdead", "", http.StatusNotFound, "version_not_found"},
		{http.MethodGet, "/v1/list?version=deadbeefdead", "", http.StatusNotFound, "version_not_found"},
		{http.MethodPost, "/v1/sameset?a=x&b=y", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodGet, "/v1/partition/batch", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodGet, "/v1/sameset?pairs=" + tooManyPairs, "", http.StatusBadRequest, "batch_too_large"},
		{http.MethodPost, "/v1/partition/batch", tooManyQueriesJSON(), http.StatusBadRequest, "batch_too_large"},
		{http.MethodPost, "/v1/partition/batch", oversizedBodyJSON(), http.StatusRequestEntityTooLarge, "body_too_large"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		label := tc.method + " " + tc.path
		if len(label) > 80 {
			label = label[:80] + "..."
		}
		if err != nil {
			t.Fatalf("%s: decoding envelope: %v", label, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", label, resp.StatusCode, tc.status)
		}
		if envelope.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", label, envelope.Code, tc.code)
		}
		if envelope.Error == "" {
			t.Errorf("%s: empty error message", label)
		}
	}
}

// tooManyQueriesJSON is a /v1/partition/batch body with one query over
// the batch cap but well under the body-size cap.
func tooManyQueriesJSON() string {
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchPairs; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"top":"a.com","embedded":"b.com"}`)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// oversizedBodyJSON is a /v1/partition/batch body past maxBatchBody.
func oversizedBodyJSON() string {
	entry := `{"top":"a.com","embedded":"b.com","policy":"rws"},`
	n := maxBatchBody/len(entry) + 2
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		sb.WriteString(entry)
	}
	sb.WriteString(`{"top":"a.com","embedded":"b.com"}]}`)
	return sb.String()
}

// TestStrictParams: unknown query keys are rejected with a bad_request
// envelope naming the supported keys — always on /v1/list (new in the
// contract), opt-in via SetStrictParams elsewhere.
func TestStrictParams(t *testing.T) {
	s, ts := newTestServer(t)

	// /v1/list never had a lenient era.
	var envelope struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if code := getJSON(t, ts.URL+"/v1/list?bogus=1", &envelope); code != http.StatusBadRequest {
		t.Errorf("/v1/list?bogus=1: status = %d, want 400", code)
	}
	if envelope.Code != "bad_request" || !strings.Contains(envelope.Error, "bogus") || !strings.Contains(envelope.Error, "version") {
		t.Errorf("/v1/list?bogus=1: envelope = %+v, want bad_request naming the key and the supported set", envelope)
	}

	// Legacy endpoints default lenient: unknown keys are ignored.
	lenient := []string{
		"/v1/sameset?a=bild.de&b=autobild.de&bogus=1",
		"/v1/set?site=bild.de&bogus=1",
		"/v1/partition?top=bild.de&embedded=autobild.de&bogus=1",
		"/v1/stats?bogus=1",
		"/healthz?bogus=1",
		"/v1/churn?bogus=1",
	}
	for _, path := range lenient {
		var raw map[string]any
		if code := getJSON(t, ts.URL+path, &raw); code != http.StatusOK {
			t.Errorf("lenient %s: status = %d, want 200", path, code)
		}
	}

	// -strict-params flips them all to reject.
	s.SetStrictParams(true)
	for _, path := range lenient {
		envelope = struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}{}
		if code := getJSON(t, ts.URL+path, &envelope); code != http.StatusBadRequest {
			t.Errorf("strict %s: status = %d, want 400", path, code)
		}
		if envelope.Code != "bad_request" || !strings.Contains(envelope.Error, "bogus") {
			t.Errorf("strict %s: envelope = %+v", path, envelope)
		}
	}

	// Known keys still pass under strict.
	var body SameSetResponse
	if code := getJSON(t, ts.URL+"/v1/sameset?a=bild.de&b=autobild.de&pretty=1", &body); code != http.StatusOK || !body.SameSet {
		t.Errorf("strict with known keys: status %d, body %+v", code, body)
	}
}
