package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rwskit/internal/serve"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", ":9999", "-list", "x.json", "-poll", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9999" || cfg.list != "x.json" || cfg.poll != 30*time.Second {
		t.Errorf("parseFlags = %+v", cfg)
	}
	if _, err := parseFlags([]string{"extra-arg"}); err == nil {
		t.Error("positional args should be rejected")
	}
	if _, err := parseFlags([]string{"-poll", "10s"}); err == nil {
		t.Error("-poll without -list should be rejected")
	}
	if _, err := parseFlags([]string{"-list", "x.json", "-poll", "-1s"}); err == nil {
		t.Error("negative -poll should be rejected")
	}
}

func TestOpenListEmbeddedFileAndURL(t *testing.T) {
	ctx := context.Background()
	src, list, _, err := openList(ctx, config{})
	if err != nil {
		t.Fatal(err)
	}
	if src != nil {
		t.Error("embedded snapshot should have no source")
	}
	if list.NumSets() != 41 {
		t.Errorf("embedded snapshot has %d sets, want 41", list.NumSets())
	}

	path := filepath.Join(t.TempDir(), "list.json")
	os.WriteFile(path, []byte(oneSetJSON), 0o644)
	src, list, meta, err := openList(ctx, config{list: path})
	if err != nil {
		t.Fatal(err)
	}
	if src == nil || list.NumSets() != 1 || !list.SameSet("a.com", "b.com") {
		t.Errorf("file list: src=%v, %d sets", src, list.NumSets())
	}
	// The boot version must carry the source's provenance — the file
	// mtime as the as-of time, not the boot instant.
	if v := meta.Version(); v.Source != path || !v.AsOf.Equal(meta.ModTime) {
		t.Errorf("boot meta version = %+v", v)
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, twoSetJSON)
	}))
	defer ts.Close()
	src, list, _, err = openList(ctx, config{list: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if src == nil || list.NumSets() != 2 {
		t.Errorf("url list: src=%v, %d sets", src, list.NumSets())
	}

	if _, _, _, err := openList(ctx, config{list: filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing file should fail")
	}
}

const oneSetJSON = `{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`
const twoSetJSON = `{"sets":[
  {"primary":"https://a.com","associatedSites":["https://b.com"]},
  {"primary":"https://c.com","associatedSites":["https://d.com"]}
]}`

// startRun boots run() on a random port and returns the bound address
// plus the error channel it will exit on.
func startRun(t *testing.T, ctx context.Context, args []string) (string, chan error) {
	t.Helper()
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...),
			func(addr string) { addrc <- addr })
	}()
	select {
	case addr := <-addrc:
		return addr, errc
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil
}

func numSets(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/stats", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Sets
}

func waitForSets(t *testing.T, addr string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for numSets(t, addr) != want {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d sets", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunServesPollsAndShutsDown drives the full binary loop on a file
// list: start on a random port, watch -poll pick up a list change, then
// cancel the context and require a clean drain.
func TestRunServesPollsAndShutsDown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(oneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addr, errc := startRun(t, ctx, []string{"-list", path, "-poll", "10ms"})
	if n := numSets(t, addr); n != 1 {
		t.Fatalf("initial sets = %d, want 1", n)
	}

	// Change the file; the poll loop must swap it in without a signal.
	if err := os.WriteFile(path, []byte(twoSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	waitForSets(t, addr, 2)

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestRunServesFromURL drives the full binary loop on an http:// list:
// the initial fetch primes the ETag, unchanged polls are answered 304
// and produce no swap, and publishing a new body under a new ETag swaps
// the snapshot under live traffic.
func TestRunServesFromURL(t *testing.T) {
	var mu sync.Mutex
	body, etag := oneSetJSON, `"v1"`
	var hits, notModified int
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		hits++
		if r.Header.Get("If-None-Match") == etag {
			notModified++
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", etag)
		fmt.Fprint(w, body)
	}))
	defer upstream.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startRun(t, ctx, []string{"-list", upstream.URL, "-poll", "10ms"})
	if n := numSets(t, addr); n != 1 {
		t.Fatalf("initial sets = %d, want 1", n)
	}

	// Let several polls land 304 before publishing the change.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		nm := notModified
		mu.Unlock()
		if nm >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("conditional polls never reached the upstream")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := numSets(t, addr); n != 1 {
		t.Fatalf("sets changed to %d on 304 polls, want 1", n)
	}

	mu.Lock()
	body, etag = twoSetJSON, `"v2"`
	mu.Unlock()
	waitForSets(t, addr, 2)

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

func TestParseFlagsTimelineAndRetain(t *testing.T) {
	cfg, err := parseFlags([]string{"-timeline", "-retain", "20"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.timeline || cfg.retain != 20 {
		t.Errorf("parseFlags = %+v", cfg)
	}
	if cfg, err = parseFlags(nil); err != nil || cfg.timeline || cfg.retain != serve.DefaultRetain {
		t.Errorf("defaults = %+v, %v", cfg, err)
	}
	if _, err := parseFlags([]string{"-retain", "0"}); err == nil {
		t.Error("-retain 0 should be rejected")
	}
}

// TestRunTimeline boots the full binary loop with -timeline and checks
// the version plane end to end: every study-window month is retained,
// as_of resolves to the right month, and /v1/diff spans the window.
func TestRunTimeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startRun(t, ctx, []string{"-timeline"})

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode
	}

	var vs serve.VersionsResponse
	if code := getJSON("/v1/versions", &vs); code != http.StatusOK {
		t.Fatalf("versions status %d", code)
	}
	// 15 months; the embedded boot list equals the final month, so the
	// store dedupes it into the timeline's last version.
	if vs.Retained != 15 {
		t.Fatalf("retained = %d, want the 15-month window", vs.Retained)
	}
	if !vs.Versions[len(vs.Versions)-1].Current {
		t.Error("the final month should be current")
	}

	// The current plane still serves the full snapshot.
	if n := numSets(t, addr); n != 41 {
		t.Errorf("current sets = %d, want 41", n)
	}

	// Time travel: January 2023 had only the first two sets.
	var st serve.StatsResponse
	if code := getJSON("/v1/stats?as_of=2023-01", &st); code != http.StatusOK {
		t.Fatalf("as_of stats status %d", code)
	}
	if st.Sets != vs.Versions[0].Sets || st.SnapshotHash != vs.Versions[0].Hash {
		t.Errorf("as_of=2023-01 stats = %d sets %.8s, want %d %.8s",
			st.Sets, st.SnapshotHash, vs.Versions[0].Sets, vs.Versions[0].Hash)
	}

	// Diff across the whole window reports the growth.
	var d serve.DiffResponse
	if code := getJSON("/v1/diff?from=2023-01&to=current", &d); code != http.StatusOK {
		t.Fatalf("diff status %d", code)
	}
	if d.Empty || len(d.AddedSets) != vs.Versions[len(vs.Versions)-1].Sets-vs.Versions[0].Sets {
		t.Errorf("window diff = %+v", d)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

func TestParseFlagsAmplify(t *testing.T) {
	cfg, err := parseFlags([]string{"-amplify", "5000", "-amplify-seed", "7", "-mem-budget", "1000000"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.amplify != 5000 || cfg.amplifySeed != 7 || cfg.memBudget != 1000000 {
		t.Errorf("parseFlags = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-amplify", "10", "-list", "x.json"}); err == nil {
		t.Error("-amplify with -list should be rejected")
	}
	if _, err := parseFlags([]string{"-amplify", "10", "-timeline"}); err == nil {
		t.Error("-amplify with -timeline should be rejected")
	}
	if _, err := parseFlags([]string{"-mem-budget", "-1"}); err == nil {
		t.Error("negative -mem-budget should be rejected")
	}
}

// TestRunAmplified boots the binary from a synthetic amplified list and
// checks the scale plane end to end: the stats plane reports the
// requested set count, the boot version carries amplify provenance, and
// /v1/metrics exposes the snapshot build decisions.
func TestRunAmplified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startRun(t, ctx, []string{"-amplify", "800", "-amplify-seed", "3"})
	if n := numSets(t, addr); n != 800 {
		t.Fatalf("amplified sets = %d, want 800", n)
	}

	var vs serve.VersionsResponse
	resp, err := http.Get("http://" + addr + "/v1/versions")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(vs.Versions) != 1 || vs.Versions[0].Source != "amplify:800:seed=3" {
		t.Errorf("versions = %+v, want one amplify:800:seed=3 version", vs.Versions)
	}

	var m serve.MetricsResponse
	resp, err = http.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.SnapshotBuild.Shards < 1 || m.SnapshotBuild.EstimatedBytes <= 0 {
		t.Errorf("snapshot_build = %+v", m.SnapshotBuild)
	}
	if m.SnapshotBuild.Tier != "full" {
		t.Errorf("unbudgeted boot tier = %q, want full", m.SnapshotBuild.Tier)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
