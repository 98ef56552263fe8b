package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rwskit/internal/core"
)

// FuzzResolveSpec holds the version-spec grammar (Store.Resolve: "",
// "current", an as-of instant, or a hash prefix) to its contract on
// arbitrary input:
//
//   - nothing panics, on any spelling;
//   - the as-of and hash sub-grammars are disjoint — a spec parseAsOf
//     accepts is never plausible hash-prefix hex, so a spec can never
//     silently switch meaning between time-travel and pinning;
//   - parseAsOf survives re-rendering: the parsed instant formatted back
//     to RFC 3339 parses to the same instant;
//   - an as-of spec resolves exactly as AsOf on the parsed instant;
//   - a successful resolve that used neither "" nor "current" returns a
//     version actually carrying the spec as hash prefix, and every
//     success returns a non-nil snapshot.
//
// The seed corpus under testdata/fuzz pins the documented spellings, the
// PR 4 handler-test edge cases, and near-misses (4-char prefixes, mixed
// case, truncated dates).
func FuzzResolveSpec(f *testing.F) {
	st := NewStore(4)
	for i, name := range []string{"january", "march", "june"} {
		list, err := core.ParseJSON([]byte(fmt.Sprintf(
			`{"sets":[{"primary":"https://%s.com","associatedSites":["https://%s-blog.com"],"rationaleBySite":{"https://%s-blog.com":"same brand"}}]}`,
			name, name, name)))
		if err != nil {
			f.Fatal(err)
		}
		at, _ := time.Parse("2006-01", fmt.Sprintf("2023-%02d", 2*i+1))
		add(st, list, core.Version{Source: "fuzz:" + name, ObservedAt: at, AsOf: at})
	}
	seeds := []string{
		"", "current", "current ",
		"2023-01", "2023-04-26", "2023-04-26T09:30:00Z", "2023-04-26T09:30:00+05:00",
		"2023", "2023-1", "2023-13", "0000-01", "9999-12-31T23:59:59Z",
		"abc", "abcd", "ABCD", "cafe", "deadbeef", "deadbeefcafe0123",
		"g123", "12-34", "café",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		at, isAsOf := parseAsOf(spec)
		snap, ver, err := st.Resolve(spec)
		if isAsOf {
			if len(spec) >= 4 && isHexLower(spec) {
				t.Fatalf("spec %q parses as both an as-of instant and a hash prefix: the grammars must be disjoint", spec)
			}
			if y := at.Year(); y >= 1 && y <= 9999 {
				again, ok := parseAsOf(at.Format(time.RFC3339))
				if !ok || !again.Equal(at) {
					t.Fatalf("parseAsOf(%q) = %v does not survive RFC 3339 re-rendering (got %v, ok=%v)", spec, at, again, ok)
				}
			}
			s2, v2, err2 := st.AsOf(at)
			if (err == nil) != (err2 == nil) || snap != s2 || ver.Hash != v2.Hash {
				t.Fatalf("Resolve(%q) = (%p, %s, %v) diverges from AsOf(%v) = (%p, %s, %v)",
					spec, snap, ver.ID(), err, at, s2, v2.ID(), err2)
			}
			return
		}
		if spec == "" || spec == "current" {
			if err != nil {
				t.Fatalf("Resolve(%q) on a non-empty store failed: %v", spec, err)
			}
		}
		if err != nil {
			// A well-formed prefix may fail only as "not found" (which the
			// handler maps to a 404) or "ambiguous"; spelling errors (too
			// short, not hex) are plain 400s.
			if len(spec) >= 4 && isHexLower(spec) &&
				!errors.Is(err, ErrVersionNotFound) && !strings.Contains(err.Error(), "ambiguous") {
				t.Fatalf("Resolve(%q) failed outside the error contract: %v", spec, err)
			}
			return
		}
		if snap == nil {
			t.Fatalf("Resolve(%q) succeeded with a nil snapshot", spec)
		}
		if spec != "" && spec != "current" {
			if !isHexLower(spec) || len(spec) < 4 {
				t.Fatalf("Resolve(%q) succeeded outside the documented grammar (not an as-of, not current/empty, not a >=4-char hex prefix)", spec)
			}
			if !strings.HasPrefix(ver.Hash, spec) {
				t.Fatalf("Resolve(%q) returned version %s whose hash does not carry the spec as prefix", spec, ver.ID())
			}
		}
	})
}
