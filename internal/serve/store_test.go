package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"rwskit/internal/core"
)

// listWithPrimary builds a one-set list whose content (and hence hash)
// is unique per name.
func listWithPrimary(t *testing.T, name string) *core.List {
	t.Helper()
	list, err := core.ParseJSON([]byte(fmt.Sprintf(
		`{"sets":[{"primary":"https://%s.com","associatedSites":["https://%s-blog.com"],"rationaleBySite":{"https://%s-blog.com":"same brand"}}]}`,
		name, name, name)))
	if err != nil {
		t.Fatal(err)
	}
	return list
}

func monthVersion(month string) core.Version {
	t, _ := time.Parse("2006-01", month)
	return core.Version{Source: "test:" + month, ObservedAt: t, AsOf: t}
}

// add installs list as st's current version and returns its snapshot.
// The stores it is used on have no memory budget, so the build cannot
// fail.
func add(st *Store, list *core.List, ver core.Version) *Snapshot {
	snap := NewSnapshot(list)
	st.AddSnapshot(snap, ver)
	return snap
}

// swapList installs list as s's current version, the way a hot swap
// under traffic does.
func swapList(s *Server, list *core.List) {
	add(s.store, list, core.Version{Source: "swap", ObservedAt: time.Now(), AsOf: time.Now()})
}

func TestStoreAddCurrentAndSwaps(t *testing.T) {
	st := NewStore(4)
	if st.Current() != nil || st.Len() != 0 {
		t.Fatal("fresh store should be empty")
	}
	a := add(st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	if st.Current() != a || st.Swaps() != 0 {
		t.Errorf("after first Add: current=%p swaps=%d, want the snapshot and 0 swaps", st.Current(), st.Swaps())
	}
	b := add(st, listWithPrimary(t, "beta"), monthVersion("2023-02"))
	if st.Current() != b || st.Swaps() != 1 || st.Len() != 2 {
		t.Errorf("after second Add: swaps=%d len=%d", st.Swaps(), st.Len())
	}
	_, ver, err := st.ByHash("current")
	if err != nil || ver.Hash != b.Hash() || ver.Source != "test:2023-02" {
		t.Errorf("ByHash(current) = %+v, %v", ver, err)
	}
}

// TestStoreDedupByHash: re-adding a retained content hash must not grow
// the store, must not count a swap when it is already current, and must
// re-file the revision under its latest provenance so as-of resolution
// stays consistent with the current plane.
func TestStoreDedupByHash(t *testing.T) {
	st := NewStore(4)
	list := listWithPrimary(t, "alpha")
	add(st, list, monthVersion("2023-01"))
	add(st, list, monthVersion("2023-06"))
	if st.Len() != 1 {
		t.Errorf("len = %d after re-adding the same content, want 1", st.Len())
	}
	if st.Swaps() != 0 {
		t.Errorf("swaps = %d for an identical re-add, want 0", st.Swaps())
	}
	_, ver, _ := st.ByHash("current")
	if ver.Source != "test:2023-06" || ver.Hash == "" {
		t.Errorf("provenance = %+v, want the latest source with the hash filled in", ver)
	}
	// Flapping back to older content re-installs the retained entry
	// under the flap's provenance: AsOf(now) must agree with the
	// unversioned plane, not resolve to the superseded middle version.
	other := listWithPrimary(t, "beta")
	add(st, other, monthVersion("2023-02"))
	add(st, list, monthVersion("2023-03"))
	if st.Len() != 2 || st.Swaps() != 2 {
		t.Errorf("after flapping: len=%d swaps=%d, want 2/2", st.Len(), st.Swaps())
	}
	now, _ := parseAsOf("2023-12")
	snap, ver, err := st.AsOf(now)
	if err != nil || snap != st.Current() || ver.Source != "test:2023-03" {
		t.Errorf("AsOf(now) after flap = %+v, %v, want the current (re-added) version", ver, err)
	}
}

// TestStoreEviction: over capacity, the oldest non-current version goes;
// the current version is never evicted, even when it is the oldest.
func TestStoreEviction(t *testing.T) {
	st := NewStore(3)
	hashes := make([]string, 0, 5)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		snap := add(st, listWithPrimary(t, name), monthVersion(fmt.Sprintf("2023-%02d", i+1)))
		hashes = append(hashes, snap.Hash())
	}
	if st.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", st.Len())
	}
	for _, h := range hashes[:2] {
		if _, _, err := st.ByHash(h); !errors.Is(err, ErrVersionNotFound) {
			t.Errorf("evicted version %.8s: err = %v, want ErrVersionNotFound", h, err)
		}
	}
	for _, h := range hashes[2:] {
		if _, _, err := st.ByHash(h); err != nil {
			t.Errorf("retained version %.8s: %v", h, err)
		}
	}

	// Re-installing the oldest retained version as current does not
	// refresh its age: once superseded again, it is still the first to
	// go. Eviction order is insertion order, not recency of currency.
	cur, _, err := st.ByHash(hashes[2])
	if err != nil {
		t.Fatal(err)
	}
	st.AddSnapshot(cur, monthVersion("2023-08"))
	if st.Current() != cur || st.Len() != 3 {
		t.Fatalf("re-install: current=%p len=%d", st.Current(), st.Len())
	}
	add(st, listWithPrimary(t, "f"), monthVersion("2023-09"))
	if _, _, err := st.ByHash(hashes[2]); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("superseded oldest version should be evicted first: %v", err)
	}

	// Capacity 1 degenerates to the single-snapshot plane.
	one := NewStore(1)
	add(one, listWithPrimary(t, "x"), monthVersion("2023-01"))
	add(one, listWithPrimary(t, "y"), monthVersion("2023-02"))
	if one.Len() != 1 || one.Current().NumSets() != 1 {
		t.Errorf("capacity-1 store: len=%d", one.Len())
	}
}

func TestStoreByHashResolution(t *testing.T) {
	st := NewStore(4)
	snap := add(st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	full := snap.Hash()

	for _, spec := range []string{full, full[:12], full[:4], "", "current"} {
		got, ver, err := st.ByHash(spec)
		if err != nil || got != snap || ver.Hash != full {
			t.Errorf("ByHash(%q) = %p, %+v, %v", spec, got, ver, err)
		}
	}
	if _, _, err := st.ByHash("abc"); err == nil {
		t.Error("3-char prefix should be rejected as too short")
	}
	if _, _, err := st.ByHash("ABCDEF"); err == nil {
		t.Error("non-lowercase-hex spec should be rejected")
	}
	if _, _, err := st.ByHash("0000deadbeef"); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("unknown prefix: err = %v, want ErrVersionNotFound", err)
	}
}

// TestStoreByHashAmbiguous fabricates two entries sharing a 4-char
// prefix (real hashes almost never collide that early) to pin the
// ambiguity error.
func TestStoreByHashAmbiguous(t *testing.T) {
	st := NewStore(4)
	for _, h := range []string{"deadbeef0000", "deadbeef1111"} {
		e := &storeEntry{ver: core.Version{Hash: h}, snap: &Snapshot{hash: h}}
		st.entries = append(st.entries, e)
		st.byHash[h] = e
	}
	st.cur.Store(st.entries[0].snap)
	if _, _, err := st.ByHash("deadbeef"); err == nil || errors.Is(err, ErrVersionNotFound) {
		t.Errorf("ambiguous prefix: err = %v, want an ambiguity error", err)
	}
	if _, _, err := st.ByHash("deadbeef1111"); err != nil {
		t.Errorf("full hash must disambiguate: %v", err)
	}
}

func TestStoreAsOf(t *testing.T) {
	st := NewStore(4)
	jan := add(st, listWithPrimary(t, "january"), monthVersion("2023-01"))
	mar := add(st, listWithPrimary(t, "march"), monthVersion("2023-03"))

	for _, tc := range []struct {
		spec string
		want *Snapshot
	}{
		{"2023-01", jan},
		{"2023-02", jan},              // between versions: latest not after t
		{"2023-02-15", jan},           // date spelling
		{"2023-03", mar},              // exact boundary: AsOf <= t
		{"2024-01", mar},              // after the last version
		{"2023-03-01T00:00:00Z", mar}, // RFC 3339 spelling
	} {
		at, ok := parseAsOf(tc.spec)
		if !ok {
			t.Fatalf("parseAsOf(%q) failed", tc.spec)
		}
		got, _, err := st.AsOf(at)
		if err != nil || got != tc.want {
			t.Errorf("AsOf(%s) = %p, %v, want %p", tc.spec, got, err, tc.want)
		}
	}
	early, _ := parseAsOf("2022-12")
	if _, _, err := st.AsOf(early); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("pre-history as-of: err = %v, want ErrVersionNotFound", err)
	}
	if _, ok := parseAsOf("not-a-time"); ok {
		t.Error("parseAsOf should reject junk")
	}
}

// TestStoreResolveSpellings: Resolve auto-detects hash prefixes, as-of
// times, and "current".
func TestStoreResolveSpellings(t *testing.T) {
	st := NewStore(4)
	jan := add(st, listWithPrimary(t, "january"), monthVersion("2023-01"))
	mar := add(st, listWithPrimary(t, "march"), monthVersion("2023-03"))
	for spec, want := range map[string]*Snapshot{
		"2023-01":       jan,
		"2023-02-01":    jan,
		jan.Hash()[:16]: jan,
		"current":       mar,
		mar.Hash():      mar,
	} {
		got, _, err := st.Resolve(spec)
		if err != nil || got != want {
			t.Errorf("Resolve(%q) = %p, %v, want %p", spec, got, err, want)
		}
	}
}

// TestStoreConcurrentAddAndResolve hammers Add, Current, and the
// versioned resolvers from many goroutines (run with -race).
func TestStoreConcurrentAddAndResolve(t *testing.T) {
	st := NewStore(4)
	lists := []*core.List{
		listWithPrimary(t, "alpha"),
		listWithPrimary(t, "beta"),
		listWithPrimary(t, "gamma"),
	}
	snaps := make([]*Snapshot, len(lists))
	for i, l := range lists {
		snaps[i] = NewSnapshot(l)
	}
	st.AddSnapshot(snaps[0], monthVersion("2023-01"))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			st.AddSnapshot(snaps[i%len(snaps)], monthVersion("2023-02"))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if st.Current() == nil {
				t.Error("Current went nil under swaps")
				return
			}
			st.Versions()
			st.Resolve("current")
		}
	}()
	wg.Wait()
	if st.Len() > st.Cap() {
		t.Errorf("len %d exceeds capacity %d", st.Len(), st.Cap())
	}
}

// TestStoreDiffMemoization: the first Diff per (from, to) pair computes
// and caches; repeats are hits; the inverse pair is pre-seeded; identical
// endpoints short-circuit without touching the cache.
func TestStoreDiffMemoization(t *testing.T) {
	st := NewStore(4)
	a := add(st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	b := NewSnapshot(listWithPrimary(t, "beta"))

	// b is not retained yet: the diff computes but must not be cached
	// (an unretained hash could never be invalidated).
	d := st.Diff(a, b)
	if d.Empty() {
		t.Fatal("alpha→beta diff should not be empty")
	}
	if n := st.diffs.len(); n != 0 {
		t.Errorf("cache holds %d entries for an unretained endpoint, want 0", n)
	}

	st.AddSnapshot(b, monthVersion("2023-02"))
	// The swap precomputed the adjacent pair in both directions.
	if n := st.diffs.len(); n != 2 {
		t.Errorf("cache holds %d entries after the swap precompute, want 2", n)
	}
	misses := st.diffs.misses.Load()
	if got := st.Diff(a, b); !reflect.DeepEqual(got, d) {
		t.Errorf("memoized diff = %+v, want %+v", got, d)
	}
	if got := st.Diff(b, a); !reflect.DeepEqual(got, d.Inverse()) {
		t.Errorf("inverse diff = %+v, want %+v", got, d.Inverse())
	}
	if st.diffs.misses.Load() != misses || st.diffs.hits.Load() < 2 {
		t.Errorf("hits=%d misses=%d after warm reads, want hits and no new misses",
			st.diffs.hits.Load(), st.diffs.misses.Load())
	}
	if got := st.Diff(a, a); !got.Empty() {
		t.Errorf("same-endpoint diff = %+v, want empty", got)
	}
}

// TestStoreDiffCacheInvalidationOnEvict: evicting a version must drop
// every cached diff that touches its hash.
func TestStoreDiffCacheInvalidationOnEvict(t *testing.T) {
	st := NewStore(3)
	snaps := make([]*Snapshot, 0, 4)
	for i, name := range []string{"a", "b", "c"} {
		snaps = append(snaps, add(st, listWithPrimary(t, name), monthVersion(fmt.Sprintf("2023-%02d", i+1))))
	}
	// Fill the cache with every ordered pair.
	for _, from := range snaps {
		for _, to := range snaps {
			if from != to {
				st.Diff(from, to)
			}
		}
	}
	if n := st.diffs.len(); n != 6 {
		t.Fatalf("cache holds %d entries, want all 6 ordered pairs", n)
	}
	evictedHash := snaps[0].Hash()
	add(st, listWithPrimary(t, "d"), monthVersion("2023-04")) // evicts "a"
	for _, k := range st.diffs.keys() {
		if k.from == evictedHash || k.to == evictedHash {
			t.Errorf("cache still holds %v after evicting %.8s", k, evictedHash)
		}
	}
	if st.diffs.invalidations.Load() == 0 {
		t.Error("invalidation counter did not move")
	}
	// The evicted version itself must answer a clean not-found.
	if _, _, err := st.ByHash(evictedHash); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("evicted version resolution: %v, want ErrVersionNotFound", err)
	}
}

// TestDiffCacheLRU: past capacity the least recently used entry goes
// first; a get refreshes recency.
func TestDiffCacheLRU(t *testing.T) {
	c := newDiffCache(2)
	c.put("aaaa", "bbbb", core.Diff{AddedSets: []string{"a"}})
	c.put("cccc", "dddd", core.Diff{AddedSets: []string{"c"}})
	if _, ok := c.get("aaaa", "bbbb"); !ok { // refresh (aaaa,bbbb)
		t.Fatal("warm entry missing")
	}
	c.put("eeee", "ffff", core.Diff{AddedSets: []string{"e"}}) // evicts (cccc,dddd)
	if _, ok := c.get("cccc", "dddd"); ok {
		t.Error("LRU entry survived past capacity")
	}
	if _, ok := c.get("aaaa", "bbbb"); !ok {
		t.Error("recently used entry was evicted")
	}
	if c.evictions.Load() != 1 {
		t.Errorf("evictions = %d, want 1", c.evictions.Load())
	}
	m := c.metrics()
	if m.entries != 2 || m.capacity != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestStoreChain: the chain walk returns the as-of-ordered inclusive
// span, rejects inverted endpoints, and reports evicted endpoints as
// not-found.
func TestStoreChain(t *testing.T) {
	st := NewStore(4)
	var vers []core.Version
	for i, name := range []string{"a", "b", "c"} {
		add(st, listWithPrimary(t, name), monthVersion(fmt.Sprintf("2023-%02d", i+1)))
		_, ver, _ := st.ByHash("current")
		vers = append(vers, ver)
	}
	chain, err := st.Chain(vers[0], vers[2])
	if err != nil || len(chain) != 3 {
		t.Fatalf("Chain = %d entries, %v, want 3", len(chain), err)
	}
	for i, ce := range chain {
		if ce.Version.Hash != vers[i].Hash {
			t.Errorf("chain[%d] = %.8s, want %.8s", i, ce.Version.Hash, vers[i].Hash)
		}
	}
	if chain, err = st.Chain(vers[1], vers[1]); err != nil || len(chain) != 1 {
		t.Errorf("self chain = %d entries, %v, want 1", len(chain), err)
	}
	if _, err = st.Chain(vers[2], vers[0]); err == nil || errors.Is(err, ErrVersionNotFound) {
		t.Errorf("inverted chain: err = %v, want an ordering error", err)
	}
	gone := vers[0]
	add(st, listWithPrimary(t, "d"), monthVersion("2023-04"))
	add(st, listWithPrimary(t, "e"), monthVersion("2023-05")) // evicts "a"
	if _, err = st.Chain(gone, vers[2]); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("chain from evicted version: err = %v, want ErrVersionNotFound", err)
	}
}

// TestDiffAcrossEvictionUnderTraffic is the regression test for the
// eviction bugfix: hammer /v1/diff (and /v1/churn) with every hash ever
// served while a writer churns the store far past its capacity. Every
// response must be a 200 or a clean 404 JSON envelope — never a 500,
// never a non-JSON body — and afterwards the diff cache must reference
// only retained hashes.
func TestDiffAcrossEvictionUnderTraffic(t *testing.T) {
	st := NewStore(3)
	add(st, listWithPrimary(t, "seed"), monthVersion("2022-12"))
	s := NewFromStore(st)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Prebuild the revisions so every reader knows every hash that will
	// ever be served — including the ones the writer has already evicted.
	const revisions = 12
	snaps := make([]*Snapshot, revisions)
	hashes := make([]string, revisions)
	for i := range snaps {
		snaps[i] = NewSnapshot(listWithPrimary(t, fmt.Sprintf("churn%02d", i)))
		hashes[i] = snaps[i].Hash()
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		base, _ := time.Parse("2006-01", "2023-01")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				st.AddSnapshot(snaps[i%revisions], core.Version{
					Source: "flap", ObservedAt: base, AsOf: base.AddDate(0, 0, i),
				})
			}
		}
	}()

	var readers sync.WaitGroup
	client := ts.Client()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				from := hashes[(r+i)%revisions]
				for _, u := range []string{
					fmt.Sprintf("%s/v1/diff?from=%s&to=current", ts.URL, from[:12]),
					fmt.Sprintf("%s/v1/churn?from=%s&to=current", ts.URL, from[:12]),
				} {
					resp, err := client.Get(u)
					if err != nil {
						t.Error(err)
						return
					}
					var body struct {
						Error string `json:"error"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
						t.Errorf("non-JSON response (status %d): %v", resp.StatusCode, err)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
					// 404: the version was evicted mid-request. 400: the
					// churn chain transiently inverted (a flapping hash is
					// re-filed under a newer as-of). Both must carry the
					// JSON error envelope; anything else — above all a 500
					// — is the regression.
					case http.StatusNotFound, http.StatusBadRequest:
						if body.Error == "" {
							t.Errorf("%s: status %d without an error envelope", u, resp.StatusCode)
						}
					default:
						t.Errorf("%s: status %d (error %q)", u, resp.StatusCode, body.Error)
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	// Hygiene: after the dust settles the cache may reference only
	// retained hashes.
	retained := make(map[string]bool)
	for _, vi := range st.Versions() {
		retained[vi.Version.Hash] = true
	}
	for _, k := range st.diffs.keys() {
		if !retained[k.from] || !retained[k.to] {
			t.Errorf("diff cache references unretained pair %v", k)
		}
	}
}

// TestStoreDiffSingleflight: N concurrent Diff calls for the same cold
// pair must run core.DiffLists exactly once — the rest wait on the
// flight and share the winner's result. Run under -race this is also
// the happens-before proof for the flight handoff. The pair is
// deliberately non-adjacent (a→c) so the swap-time precompute cannot
// warm it first.
func TestStoreDiffSingleflight(t *testing.T) {
	st := NewStore(4)
	a := add(st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	add(st, listWithPrimary(t, "beta"), monthVersion("2023-02"))
	c := add(st, listWithPrimary(t, "gamma"), monthVersion("2023-03"))
	if _, ok := st.diffs.get(a.Hash(), c.Hash()); ok {
		t.Fatal("a→c pair is already warm; the test needs a cold pair")
	}
	before := st.diffs.computes.Load()

	const callers = 32
	start := make(chan struct{})
	results := make([]core.Diff, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = st.Diff(a, c)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := st.diffs.computes.Load() - before; got != 1 {
		t.Errorf("%d concurrent misses ran DiffLists %d times, want 1", callers, got)
	}
	want := core.DiffLists(a.list, c.list)
	for i, d := range results {
		if !reflect.DeepEqual(d, want) {
			t.Errorf("caller %d got diff %+v, want %+v", i, d, want)
		}
	}
	// The flight table must be empty afterwards and the pair warm.
	st.flightMu.Lock()
	inflight := len(st.flights)
	st.flightMu.Unlock()
	if inflight != 0 {
		t.Errorf("%d flights still registered after all callers returned", inflight)
	}
	if _, ok := st.diffs.get(a.Hash(), c.Hash()); !ok {
		t.Error("a→c pair is not cached after the singleflight compute")
	}
}
