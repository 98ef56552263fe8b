package serve

import (
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzParsePairs holds the batch pairs= parser to its contract on
// arbitrary input: it never panics; on success it returns between 1 and
// maxBatchPairs pairs whose sides are non-empty and whitespace-trimmed,
// with no ';' on either side and no ',' on the a side; and the parse is
// a projection — rejoining the parsed pairs and reparsing yields exactly
// the same result. The seed corpus under testdata/fuzz pins the batch
// spellings the PR 2/3 handler tests special-cased (trailing ';', empty
// segments, embedded whitespace, commas in the b side, the 1000-pair
// cap).
func FuzzParsePairs(f *testing.F) {
	seeds := []string{
		"a,b",
		"a,b;c,d",
		" a , b ; ",
		"a,b;;c,d",
		";;;",
		"",
		"a;b",
		"a,b,c",
		",a",
		"a,",
		"office.com,live.com;office.com,github.com",
		"https://example.com:443/,EXAMPLE.com.",
		strings.Repeat("x,y;", maxBatchPairs+1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		pairs, err := parsePairs(raw)
		if err != nil {
			return
		}
		if len(pairs) == 0 || len(pairs) > maxBatchPairs {
			t.Fatalf("parsePairs(%q) returned %d pairs outside [1, %d]", raw, len(pairs), maxBatchPairs)
		}
		for i, p := range pairs {
			for side, v := range p {
				if v == "" {
					t.Fatalf("pair %d side %d of %q is empty", i, side, raw)
				}
				if strings.TrimSpace(v) != v {
					t.Fatalf("pair %d side %d of %q is untrimmed: %q", i, side, raw, v)
				}
				if strings.ContainsRune(v, ';') {
					t.Fatalf("pair %d side %d of %q contains ';': %q", i, side, raw, v)
				}
			}
			if strings.ContainsRune(p[0], ',') {
				t.Fatalf("pair %d a-side of %q contains ',': %q", i, raw, p[0])
			}
		}
		// Projection: rendering the parsed pairs back to the wire format
		// and reparsing must be the identity.
		parts := make([]string, len(pairs))
		for i, p := range pairs {
			parts[i] = p[0] + "," + p[1]
		}
		again, err := parsePairs(strings.Join(parts, ";"))
		if err != nil {
			t.Fatalf("reparse of normalized %q failed: %v", raw, err)
		}
		if len(again) != len(pairs) {
			t.Fatalf("reparse of %q returned %d pairs, want %d", raw, len(again), len(pairs))
		}
		for i := range again {
			if again[i] != pairs[i] {
				t.Fatalf("reparse of %q pair %d = %v, want %v", raw, i, again[i], pairs[i])
			}
		}
	})
}

// pairsKeepsSemicolon reports whether raw holds a pairs segment with a
// raw ';' — the one spelling url.ParseQuery drops and the scanner keeps.
func pairsKeepsSemicolon(raw string) bool {
	for _, seg := range strings.Split(raw, "&") {
		k, _, _ := strings.Cut(seg, "=")
		if k, err := url.QueryUnescape(k); err == nil && k == "pairs" && strings.Contains(seg, ";") {
			return true
		}
	}
	return false
}

// checkScanMatchesParseQuery holds scanQuery and unknownKeys to
// url.ParseQuery on one raw query: the same first value and presence for
// every scanned key, and the same unknown keys against each endpoint's
// allowlist. A pairs segment with a raw ';' is the documented exception:
// ParseQuery drops it, the scanner keeps it.
func checkScanMatchesParseQuery(t *testing.T, raw string) {
	t.Helper()
	var q query
	scanQuery(raw, &q)
	want, _ := url.ParseQuery(raw)
	semi := pairsKeepsSemicolon(raw)
	for p, key := range paramNames {
		if semi && param(p) == pPairs {
			continue
		}
		_, present := want[key]
		if got := q.seen&(1<<p) != 0; got != present {
			t.Fatalf("scanQuery(%q): %s present = %v, ParseQuery says %v", raw, key, got, present)
		}
		if got := q.vals[p]; got != want.Get(key) {
			t.Fatalf("scanQuery(%q): %s = %q, ParseQuery says %q", raw, key, got, want.Get(key))
		}
	}
	for _, supported := range [][]string{paramsSameSet, paramsSet, paramsPartition, paramsVersioned, paramsPretty} {
		var wantUnknown []string
		for k := range want {
			if !slices.Contains(supported, k) {
				wantUnknown = append(wantUnknown, k)
			}
		}
		sort.Strings(wantUnknown)
		got := unknownKeys(raw, supported)
		if semi {
			isPairs := func(k string) bool { return k == "pairs" }
			got = slices.DeleteFunc(got, isPairs)
			wantUnknown = slices.DeleteFunc(wantUnknown, isPairs)
		}
		if !slices.Equal(got, wantUnknown) {
			t.Fatalf("unknownKeys(%q, %v) = %q, ParseQuery says %q", raw, supported, got, wantUnknown)
		}
	}
}

// TestScanQueryMatchesParseQuery pins the scanner's grammar on the
// spellings that matter: first value wins, '+' is a space, %XX decodes
// in keys and values, a segment with a bad escape or a raw ';' is
// dropped whole, and pairs= keeps its raw ';' separators.
func TestScanQueryMatchesParseQuery(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		p    param
		want string
	}{
		{"a=x&a=y", pA, "x"},
		{"a=&a=y", pA, ""},
		{"site=a+b", pSite, "a b"},
		{"site=a%2Bb", pSite, "a+b"},
		{"%73ite=bild.de", pSite, "bild.de"},
		{"site=%zz&site=ok", pSite, "ok"},
		{"si%zzte=x&site=ok", pSite, "ok"},
		{"site=a;b&site=ok", pSite, "ok"},
		{"top=a;&top=b", pTop, "b"},
		{"pairs=a,b;c,d", pPairs, "a,b;c,d"},
		{"pairs=a,b%3Bc,d", pPairs, "a,b;c,d"},
		{"pairs=a,b;c,d&pairs=e,f", pPairs, "a,b;c,d"},
		{"&&version=abcd&", pVersion, "abcd"},
		{"as_of", pAsOf, ""},
		{"=x&policy=strict", pPolicy, "strict"},
	} {
		var q query
		scanQuery(tc.raw, &q)
		if got := q.vals[tc.p]; got != tc.want {
			t.Errorf("scanQuery(%q): %s = %q, want %q", tc.raw, paramNames[tc.p], got, tc.want)
		}
		checkScanMatchesParseQuery(t, tc.raw)
	}
	for raw, want := range map[string]bool{"pretty": true, "pretty=1": true, "pretty=true": true, "pretty=0": false, "pretty=yes": false, "": false, "pretty=1;": false} {
		var q query
		scanQuery(raw, &q)
		if q.pretty() != want {
			t.Errorf("scanQuery(%q).pretty() = %v, want %v", raw, !want, want)
		}
	}
	if got := unknownKeys("bogus=1&a=x&bogus=2&%zz=3&x;y=4&=5", paramsSameSet); !slices.Equal(got, []string{"", "bogus"}) {
		t.Errorf("unknownKeys = %q, want [\"\" bogus]", got)
	}
}

// FuzzScanQuery is the differential form of TestScanQueryMatchesParseQuery
// over arbitrary raw queries.
func FuzzScanQuery(f *testing.F) {
	for _, s := range []string{
		"a=bild.de&b=autobild.de",
		"site=a+b%20c&pretty",
		"top=x&embedded=y&policy=strict&version=abcd&as_of=2023-04",
		"pairs=a,b;c,d&pretty=1",
		"a=%zz&a=ok",
		"a=1;2&b=3",
		"&=&&a==b=",
		"%61=%62&a=c",
	} {
		f.Add(s)
	}
	f.Fuzz(checkScanMatchesParseQuery)
}
