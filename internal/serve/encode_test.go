package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// encodeJSON renders v as encoding/json's Encoder writes it: compact
// plus a newline, or indented as ?pretty=1 asks.
func encodeJSON(t *testing.T, v any, pretty bool) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if pretty {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkMarshal holds one encoder output to json.Marshal of v.
func checkMarshal(t *testing.T, what string, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s = %s, want %s", what, got, want)
	}
}

// TestAppendJSONStringMatchesMarshal holds the hand-rolled string
// encoder to encoding/json byte-for-byte: ASCII, the HTML escapes, every
// control character, multibyte runes, invalid UTF-8, U+2028/U+2029.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "example.com", "a.example", "with space", "quote\"inside",
		"back\\slash", "tab\tnewline\nret\r", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "über.de", "日本語.jp", "emoji 🎉 host",
		" line sep", "bad\xff\xfeutf8", "\xc3", "mixed<&>\xe2\x80",
	}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 500; n++ {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// randomString draws a short string mixing plain host bytes with the
// characters encoding/json escapes.
func randomString(rng *rand.Rand) string {
	const alphabet = "abc.-<>&\"\\\t\x01\x7f\xff"
	var sb strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(8) {
		case 0:
			sb.WriteString("\u2028\u00e9")
		default:
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
	}
	return sb.String()
}

// encoderTestSnapshots is the property-test corpus: the embedded real
// list and two amplified lists, each built at shard counts 1, 2 and 7,
// plus the serial reference build of the embedded list.
func encoderTestSnapshots(t *testing.T) map[string]*Snapshot {
	t.Helper()
	lists := map[string]*core.List{}
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	lists["embedded"] = embedded
	for _, seed := range []int64{1, 2} {
		list, err := amplify.Generate(amplify.Config{Sets: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lists[fmt.Sprintf("amplified-seed%d", seed)] = list
	}
	snaps := map[string]*Snapshot{}
	for name, list := range lists {
		for _, shards := range []int{1, 2, 7} {
			snap, err := BuildSnapshot(list, SnapshotOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			snaps[fmt.Sprintf("%s-shards%d", name, shards)] = snap
		}
	}
	// The serial reference build feeds the same handlers, so the encoders
	// are held to encoding/json on its tables as well.
	snaps["embedded-serial"] = buildSerial(embedded)
	return snaps
}

// probeHosts returns query hosts covering every member shape of snap:
// one member per role of the list's richest set (ccTLD members
// included), a member of another set, off-list hosts, a non-canonical
// spelling, and hosts whose echo needs JSON escaping.
func probeHosts(snap *Snapshot) []string {
	sets := snap.List().Sets()
	rich, roles := sets[0], 0
	for _, set := range sets {
		var seen [numRoles]bool
		n := 0
		for _, m := range set.Members() {
			if !seen[m.Role] {
				seen[m.Role] = true
				n++
			}
		}
		if n > roles {
			rich, roles = set, n
		}
	}
	var hosts []string
	var seen [numRoles]bool
	for _, m := range rich.Members() {
		if !seen[m.Role] {
			seen[m.Role] = true
			hosts = append(hosts, m.Site)
		}
	}
	other := sets[len(sets)/2]
	if other == rich {
		other = sets[0]
	}
	return append(hosts,
		other.Primary,
		"HTTPS://"+strings.ToUpper(rich.Primary)+":443/login",
		"off-list.invalid",
		`<b>&"esc"\.invalid`,
		"tab\tü \xff.invalid",
	)
}

// TestEncodersMatchEncodingJSON is the encoders' correctness property:
// every append* encoder writes exactly the bytes encoding/json writes
// for the same value. Random values exercise the escapes and the float
// format directly; then, across the embedded and amplified lists at
// shard counts 1, 2 and 7 (and the embedded list's serial reference
// build), every query endpoint is driven through the
// real handler for every probe pair (same-set under every role
// combination present, cross-set, same-host, off-list, escaped echoes)
// and every policy spelling, in the point and batch forms, compact,
// ?pretty=1 and version-pinned, and the body must equal the Encoder
// output of the response value the Snapshot query methods return.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	t.Run("random-values", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		maybe := func(s string) string {
			if rng.Intn(3) == 0 {
				return ""
			}
			return s
		}
		floats := []float64{0, 1, 1.5, 2.0 / 3, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 123456789.125, 5e-324, math.MaxFloat64}
		for n := 0; n < 300; n++ {
			ss := SameSetResponse{A: randomString(rng), B: randomString(rng), SameSet: rng.Intn(2) == 0, Primary: maybe(randomString(rng))}
			checkMarshal(t, "appendSameSet", appendSameSet(nil, ss), ss)

			sr := SetResponse{Site: randomString(rng), Found: rng.Intn(2) == 0, Role: maybe(randomString(rng)), Primary: maybe(randomString(rng))}
			for k := rng.Intn(4); k > 0; k-- {
				sr.Members = append(sr.Members, SetMember{Site: randomString(rng), Role: randomString(rng), AliasOf: maybe(randomString(rng))})
			}
			checkMarshal(t, "appendSet", appendSet(nil, sr), sr)

			pr := PartitionResponse{Policy: randomString(rng), Top: randomString(rng), Embedded: randomString(rng),
				SameSet: rng.Intn(2) == 0, PartitionedByDefault: rng.Intn(2) == 0, Decision: randomString(rng), Granted: rng.Intn(2) == 0}
			checkMarshal(t, "appendPartition", appendPartition(nil, pr), pr)

			mean := math.Float64frombits(rng.Uint64())
			if n < len(floats) {
				mean = floats[n]
			} else if math.IsNaN(mean) || math.IsInf(mean, 0) {
				mean = rng.NormFloat64()
			}
			st := StatsResponse{Sets: rng.Int(), Sites: rng.Int(), AssociatedSites: rng.Intn(1000), ServiceSites: rng.Intn(1000),
				CCTLDSites: rng.Intn(1000), MeanAssociated: mean, SnapshotHash: randomString(rng), Requests: rng.Uint64(), ListSwaps: rng.Uint64()}
			checkMarshal(t, "appendStats", appendStats(nil, st), st)
		}
	})

	policies := []string{"", "rws", "chrome", "strict", "brave", "prompt", "firefox", "safari", "legacy", "unpartitioned"}
	sawCCTLD := false
	for label, snap := range encoderTestSnapshots(t) {
		t.Run(label, func(t *testing.T) {
			st := storeOf(t, snap)
			srv := NewFromStore(st)
			get := func(path string, want any) {
				t.Helper()
				for _, suffix := range []string{"", "&pretty=1", "&version=" + snap.hash[:12]} {
					p := path + suffix
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", p, rec.Code, rec.Body)
					}
					if w := encodeJSON(t, want, suffix == "&pretty=1"); rec.Body.String() != w {
						t.Errorf("%s = %s, want %s", p, rec.Body, w)
					}
				}
			}
			hosts := probeHosts(snap)
			for _, h := range hosts {
				if e, ok := snap.lookup(core.CanonicalHost(h)); ok && e.role == core.RoleCCTLD {
					sawCCTLD = true
				}
				get("/v1/set?site="+url.QueryEscape(h), snap.Set(h))
			}
			var pairs [][2]string
			for _, a := range hosts {
				for _, b := range hosts {
					pairs = append(pairs, [2]string{a, b})
					q := "a=" + url.QueryEscape(a) + "&b=" + url.QueryEscape(b)
					get("/v1/sameset?"+q, snap.SameSet(a, b))
					for _, policy := range policies {
						resp, err := snap.Partition(policy, a, b)
						if err != nil {
							t.Fatal(err)
						}
						get("/v1/partition?top="+url.QueryEscape(a)+"&embedded="+url.QueryEscape(b)+"&policy="+policy, resp)
					}
				}
			}
			batch := SameSetBatchResponse{Pairs: len(pairs), Results: make([]SameSetResponse, len(pairs))}
			parts := make([]string, len(pairs))
			for i, p := range pairs {
				batch.Results[i] = snap.SameSet(p[0], p[1])
				parts[i] = p[0] + "," + p[1]
			}
			checkMarshal(t, "appendSameSetBatch", appendSameSetBatch(nil, snap, pairs), batch)
			// The pairs spelled on the wire must round-trip through the
			// scanner: only pairs free of the batch separators can be sent.
			var wire []string
			var wireBatch SameSetBatchResponse
			for i, p := range parts {
				if strings.Count(p, ",") == 1 && !strings.ContainsAny(p, "; \t") {
					wire = append(wire, p)
					wireBatch.Results = append(wireBatch.Results, batch.Results[i])
				}
			}
			wireBatch.Pairs = len(wire)
			get("/v1/sameset?pairs="+url.QueryEscape(strings.Join(wire, ";")), wireBatch)

			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats?pretty=1", nil))
			want := StatsResponse{
				Sets:            snap.stats.Sets,
				Sites:           snap.numSites,
				AssociatedSites: snap.stats.AssociatedSites,
				ServiceSites:    snap.stats.ServiceSites,
				CCTLDSites:      snap.stats.CCTLDSites,
				MeanAssociated:  snap.stats.MeanAssociatedPerSet,
				SnapshotHash:    snap.hash,
				Requests:        srv.requests.Load(),
				ListSwaps:       st.Swaps(),
			}
			if w := encodeJSON(t, want, true); rec.Body.String() != w {
				t.Errorf("/v1/stats?pretty=1 = %s, want %s", rec.Body, w)
			}
		})
	}
	if !sawCCTLD {
		t.Error("the corpus probed no ccTLD member")
	}
}

// TestFastPathMatchesSlowPathOverHTTP drives the real server twice per
// query — once with verbatim values, once with a percent-encoded
// character the scanner must decode — and requires byte-equal bodies.
// This pins the whole request path (mux, instrument, scanner, encoder),
// not just the encoders.
func TestFastPathMatchesSlowPathOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	sets := list.Sets()
	a := sets[0].Members()[0].Site
	b := sets[0].Members()[len(sets[0].Members())-1].Site
	c := sets[1].Members()[0].Site
	// Percent-encoding the first byte decodes to the same host.
	slow := func(h string) string { return fmt.Sprintf("%%%02X%s", h[0], h[1:]) }
	queries := [][2]string{
		{"/v1/sameset?a=" + a + "&b=" + b, "/v1/sameset?a=" + slow(a) + "&b=" + slow(b)},
		{"/v1/sameset?a=" + a + "&b=" + c, "/v1/sameset?a=" + slow(a) + "&b=" + slow(c)},
		{"/v1/set?site=" + a, "/v1/set?site=" + slow(a)},
		{"/v1/set?site=nope.invalid", "/v1/set?site=nope%2Einvalid"},
		{"/v1/partition?top=" + a + "&embedded=" + b, "/v1/partition?top=" + slow(a) + "&embedded=" + slow(b)},
		{"/v1/partition?top=" + a + "&embedded=" + c + "&policy=strict", "/v1/partition?top=" + slow(a) + "&embedded=" + slow(c) + "&policy=strict"},
	}
	for _, q := range queries {
		if fast, slow := fetch(q[0]), fetch(q[1]); fast != slow {
			t.Errorf("fast path %s = %s, slow path %s = %s", q[0], fast, q[1], slow)
		}
	}
	// The pretty opt-in really is indented, and decodes to the same value.
	pretty := fetch("/v1/sameset?a=" + a + "&b=" + b + "&pretty=1")
	compact := fetch("/v1/sameset?a=" + a + "&b=" + b)
	if !strings.Contains(pretty, "\n  ") {
		t.Errorf("pretty=1 body not indented: %q", pretty)
	}
	var pv, cv SameSetResponse
	if err := json.Unmarshal([]byte(pretty), &pv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(compact), &cv); err != nil {
		t.Fatal(err)
	}
	if pv != cv {
		t.Errorf("pretty %+v != compact %+v", pv, cv)
	}
}

// discardRW is a reusable ResponseWriter that costs nothing per request,
// so AllocsPerRun and the gated benchmarks measure the handler's own
// allocations rather than httptest.NewRecorder's.
type discardRW struct {
	h      http.Header
	status int
	n      int
}

func newDiscardRW() *discardRW { return &discardRW{h: make(http.Header, 4)} }

func (d *discardRW) Header() http.Header { return d.h }

func (d *discardRW) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func (d *discardRW) WriteHeader(status int) { d.status = status }

// TestHandlersZeroAlloc asserts the query endpoints allocate nothing per
// request through the full Server.ServeHTTP stack (mux dispatch,
// instrument, query scan, encode, envelope).
func TestHandlersZeroAlloc(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	s := New(list)
	sets := list.Sets()
	a := sets[0].Members()[0].Site
	b := sets[0].Members()[len(sets[0].Members())-1].Site
	for _, path := range []string{
		"/v1/sameset?a=" + a + "&b=" + b,
		"/v1/set?site=" + a,
		"/v1/partition?top=" + a + "&embedded=" + b,
		"/v1/stats",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rw := newDiscardRW()
		s.ServeHTTP(rw, req) // warm pools and the header map
		if rw.status != 0 && rw.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, rw.status)
		}
		allocs := testing.AllocsPerRun(200, func() {
			s.ServeHTTP(rw, req)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", path, allocs)
		}
	}
}
