package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"testing"
	"time"

	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/history"
)

// benchServer wires the embedded snapshot behind a real HTTP listener so
// the benchmark includes the full serving stack, not just the handler.
func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(list))
	b.Cleanup(ts.Close)
	return ts
}

func benchGet(b *testing.B, path string) {
	b.Helper()
	ts := benchServer(b)
	client := ts.Client()
	url := ts.URL + path
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d for %s", resp.StatusCode, url)
			}
			resp.Body.Close()
		}
	})
}

func BenchmarkServeSameSet(b *testing.B) {
	benchGet(b, "/v1/sameset?a=bild.de&b=autobild.de")
}

func BenchmarkServeSetLookup(b *testing.B) {
	benchGet(b, "/v1/set?site=webvisor.com")
}

func BenchmarkServePartition(b *testing.B) {
	benchGet(b, "/v1/partition?top=bild.de&embedded=autobild.de")
}

// BenchmarkServeSameSetUnderSwaps measures the read path while a writer
// hot-swaps the snapshot continuously — the reload-under-traffic
// scenario. The snapshots are prebuilt so the writer exercises the
// atomic install, not the (off-path, once-per-reload) precompute.
func BenchmarkServeSameSetUnderSwaps(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	snaps := [2]*Snapshot{NewSnapshot(list), NewSnapshot(list)}
	ts := httptest.NewServer(s)
	b.Cleanup(ts.Close)
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.SwapSnapshot(snaps[i%2])
			}
		}
	}()
	defer close(stop)
	client := ts.Client()
	url := ts.URL + "/v1/sameset?a=bild.de&b=autobild.de"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
}

// BenchmarkHandlerSameSet measures the handler alone (no network), the
// per-request cost floor of the query service.
func BenchmarkHandlerSameSet(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	req := httptest.NewRequest(http.MethodGet, "/v1/sameset?a=bild.de&b=autobild.de", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(fmt.Errorf("status %d", rec.Code))
		}
	}
}

// BenchmarkHandlerPartition is the handler-level partition cost on the
// precomputed snapshot plane.
func BenchmarkHandlerPartition(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	req := httptest.NewRequest(http.MethodGet, "/v1/partition?top=bild.de&embedded=autobild.de", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(fmt.Errorf("status %d", rec.Code))
		}
	}
}

// BenchmarkPartition is the verdict-table lookup for a list-member pair —
// the hot core of /v1/partition after the snapshot precompute.
func BenchmarkPartition(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	snap := NewSnapshot(list)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := snap.Partition("rws", "bild.de", "autobild.de")
		if err != nil || resp.Decision != "granted-auto" {
			b.Fatalf("partition = %+v, %v", resp, err)
		}
	}
}

// BenchmarkPartitionLiveBaseline is the PR-1 per-request cost the table
// replaces: a fresh browser profile (four map allocations) plus a visit,
// embed, and requestStorageAccess per query.
func BenchmarkPartitionLiveBaseline(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	policy := browser.RWSPolicy{List: list}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := browser.EvaluateFresh(policy, "bild.de", "autobild.de")
		if v.Decision != browser.GrantedAuto {
			b.Fatalf("decision = %v", v.Decision)
		}
		_ = list.SameSet("bild.de", "autobild.de")
	}
}

// BenchmarkServeSameSetBatch answers 50 pairs per request over HTTP — the
// amortization the batch endpoint buys for the user-effect site-pair
// sweeps.
func BenchmarkServeSameSetBatch(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	var pairs []string
	for _, s := range list.Sets() {
		pairs = append(pairs, s.Primary+","+s.Primary)
		if len(pairs) == 50 {
			break
		}
	}
	ts := httptest.NewServer(New(list))
	b.Cleanup(ts.Close)
	client := ts.Client()
	url := ts.URL + "/v1/sameset?pairs=" + neturl.QueryEscape(strings.Join(pairs, ";"))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
}

// BenchmarkSnapshotBuild is the Swap-time precompute cost — the price paid
// once per reload so every request afterwards is a lookup.
func BenchmarkSnapshotBuild(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := NewSnapshot(list); snap.NumSets() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkHandlerSameSetVersioned is the handler cost when the request
// pins a version: one RLock'd prefix scan on top of the fast path.
func BenchmarkHandlerSameSetVersioned(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	hash := s.Snapshot().Hash()
	req := httptest.NewRequest(http.MethodGet, "/v1/sameset?a=bild.de&b=autobild.de&version="+hash[:12], nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(fmt.Errorf("status %d", rec.Code))
		}
	}
}

// BenchmarkStoreCurrent is the unversioned resolution cost — the atomic
// load every request without version=/as_of= pays.
func BenchmarkStoreCurrent(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	st := NewStore(4)
	st.Add(list, core.Version{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.Current() == nil {
			b.Fatal("nil current")
		}
	}
}

// BenchmarkStoreResolveAsOf is the time-travel resolution cost over a
// full 15-version store (linear scan under RLock).
func BenchmarkStoreResolveAsOf(b *testing.B) {
	tl, err := history.Build()
	if err != nil {
		b.Fatal(err)
	}
	st := NewStore(len(tl.Snapshots) + 1)
	for _, snap := range tl.Snapshots {
		asOf, _ := time.Parse("2006-01", snap.Month)
		st.Add(snap.List, core.Version{Source: "timeline:" + snap.Month, ObservedAt: asOf, AsOf: asOf})
	}
	at, _ := parseAsOf("2023-07")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.AsOf(at); err != nil {
			b.Fatal(err)
		}
	}
}

// timelineBenchStore builds the 15-version study-window store the diff
// and churn benchmarks run against.
func timelineBenchStore(b *testing.B) *Store {
	b.Helper()
	tl, err := history.Build()
	if err != nil {
		b.Fatal(err)
	}
	st := NewStore(len(tl.Snapshots) + 1)
	for _, snap := range tl.Snapshots {
		asOf, _ := time.Parse("2006-01", snap.Month)
		st.Add(snap.List, core.Version{Source: "timeline:" + snap.Month, ObservedAt: asOf, AsOf: asOf})
	}
	return st
}

// BenchmarkStoreDiffCached is the memoized diff plane's steady state:
// every iteration after the first is a cache hit on the whole-window
// pair. This is what a /v1/diff request pays once the cache is warm.
func BenchmarkStoreDiffCached(b *testing.B) {
	st := timelineBenchStore(b)
	infos := st.Versions()
	from, _, _ := st.ByHash(infos[0].Version.Hash)
	to, _, _ := st.ByHash(infos[len(infos)-1].Version.Hash)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := st.Diff(from, to); d.Empty() {
			b.Fatal("window diff should not be empty")
		}
	}
}

// BenchmarkDiffListsUncached is the recompute the cache replaces: a full
// core.DiffLists between the window endpoints on every call — what every
// /v1/diff request paid before the memoized plane.
func BenchmarkDiffListsUncached(b *testing.B) {
	st := timelineBenchStore(b)
	infos := st.Versions()
	from, _, _ := st.ByHash(infos[0].Version.Hash)
	to, _, _ := st.ByHash(infos[len(infos)-1].Version.Hash)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := core.DiffLists(from.List(), to.List()); d.Empty() {
			b.Fatal("window diff should not be empty")
		}
	}
}

// BenchmarkHandlerDiff is the handler-level /v1/diff cost on the warm
// cache — resolution, memoized lookup, and JSON encoding.
func BenchmarkHandlerDiff(b *testing.B) {
	st := timelineBenchStore(b)
	s := NewFromStore(st)
	infos := st.Versions()
	u := fmt.Sprintf("/v1/diff?from=%s&to=%s",
		infos[0].Version.Hash[:12], infos[len(infos)-1].Version.Hash[:12])
	req := httptest.NewRequest(http.MethodGet, u, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(fmt.Errorf("status %d", rec.Code))
		}
	}
}

// BenchmarkHandlerChurn walks the whole 15-version chain per request —
// 14 adjacent diffs (all cache hits after the preload), the churn
// digest, and the JSON encode.
func BenchmarkHandlerChurn(b *testing.B) {
	st := timelineBenchStore(b)
	s := NewFromStore(st)
	req := httptest.NewRequest(http.MethodGet, "/v1/churn?from=2023-01&to=current", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(fmt.Errorf("status %d", rec.Code))
		}
	}
}

// benchZeroAlloc measures one query endpoint through the full
// Server.ServeHTTP stack with a reusable discard writer, so the reported
// allocs/op are the handler's own — the value the benchgate's
// zero-alloc assertion gates.
func benchZeroAlloc(b *testing.B, path string) {
	b.Helper()
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rw := newDiscardRW()
	s.ServeHTTP(rw, req) // warm the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(rw, req)
	}
	if rw.status != 0 && rw.status != http.StatusOK {
		b.Fatalf("status %d", rw.status)
	}
}

// BenchmarkHandlerSameSetZeroAlloc is a member-pair sameset query: query
// scan, two host lookups, encode, pooled write.
func BenchmarkHandlerSameSetZeroAlloc(b *testing.B) {
	benchZeroAlloc(b, "/v1/sameset?a=bild.de&b=autobild.de")
}

// BenchmarkHandlerSetZeroAlloc encodes a set's member-table row.
func BenchmarkHandlerSetZeroAlloc(b *testing.B) {
	benchZeroAlloc(b, "/v1/set?site=webvisor.com")
}

// BenchmarkHandlerPartitionZeroAlloc is the verdict-table path for a
// list-member pair.
func BenchmarkHandlerPartitionZeroAlloc(b *testing.B) {
	benchZeroAlloc(b, "/v1/partition?top=bild.de&embedded=autobild.de")
}

// BenchmarkHandlerStatsZeroAlloc encodes the stats body around the live
// counters.
func BenchmarkHandlerStatsZeroAlloc(b *testing.B) {
	benchZeroAlloc(b, "/v1/stats")
}

// BenchmarkHandlerList is the replication export's full-body path: what
// the leader pays when a follower's validator misses (or on its first
// poll). The body is encoded at snapshot build; the cost is resolution
// plus one copy.
func BenchmarkHandlerList(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	req := httptest.NewRequest(http.MethodGet, "/v1/list", nil)
	rw := newDiscardRW()
	s.ServeHTTP(rw, req)
	if rw.status != 0 && rw.status != http.StatusOK {
		b.Fatalf("status %d", rw.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(rw, req)
	}
}

// BenchmarkHandlerListNotModified is the steady state of an edge tier:
// every follower poll against an idle leader lands here — validator
// compare, 304, no body.
func BenchmarkHandlerListNotModified(b *testing.B) {
	list, err := dataset.List()
	if err != nil {
		b.Fatal(err)
	}
	s := New(list)
	req := httptest.NewRequest(http.MethodGet, "/v1/list", nil)
	req.Header.Set("If-None-Match", `"`+list.Hash()+`"`)
	rw := newDiscardRW()
	s.ServeHTTP(rw, req)
	if rw.status != http.StatusNotModified {
		b.Fatalf("status %d, want 304", rw.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(rw, req)
	}
}
