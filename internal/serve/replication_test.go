package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/source"
)

// leaderProxy fronts the current leader Server and lets a test kill and
// restart the leader without changing the URL followers poll — the
// follower-facing shape of a real failover.
type leaderProxy struct {
	cur atomic.Pointer[Server]
}

func (p *leaderProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := p.cur.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	writeError(w, r, http.StatusServiceUnavailable, codeInternal, "leader down")
}

// follower is a Server wired exactly like `rws-serve -list <leader>/v1/list
// [-mem-budget B]`: boot fetch into the store, then Server.Watch, the
// entry point the cmd calls.
type follower struct {
	srv    *Server
	log    *syncLog
	cancel context.CancelFunc
	done   <-chan struct{}
}

// syncLog collects install log lines; safe to read while the watcher
// goroutine writes.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder // guarded by mu
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func startFollower(t *testing.T, listURL string, poll time.Duration) *follower {
	t.Helper()
	return startBudgetedFollower(t, listURL, poll, 0)
}

// startBudgetedFollower is startFollower with a snapshot memory budget
// (0 = unlimited).
func startBudgetedFollower(t *testing.T, listURL string, poll time.Duration, budget int64) *follower {
	t.Helper()
	src := source.NewHTTPSource(listURL, source.HTTPConfig{
		Attempts:   1,
		Backoff:    time.Millisecond,
		BackoffCap: time.Millisecond,
	})
	list, meta, err := src.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Follows() {
		t.Fatal("boot fetch from a leader /v1/list should carry replication headers")
	}
	st := NewStoreWith(8, SnapshotOptions{MemoryBudget: budget})
	if _, err := st.AddList(list, meta.Version()); err != nil {
		t.Fatal(err)
	}
	srv := NewFromStore(st)
	ctx, cancel := context.WithCancel(context.Background())
	log := &syncLog{}
	f := &follower{srv: srv, log: log, cancel: cancel}
	f.done = srv.Watch(ctx, source.NewWatcher(src, poll, nil), meta, log)
	t.Cleanup(f.stop)
	return f
}

// metrics reads the node's /v1/metrics over its handler.
func metrics(t *testing.T, s *Server) MetricsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func (f *follower) stop() {
	f.cancel()
	<-f.done
}

// hash returns the version hash the node currently serves.
func serveHash(t *testing.T, s *Server) string {
	t.Helper()
	snap, _, err := s.store.ByHash("")
	if err != nil {
		t.Fatal(err)
	}
	return snap.hash
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newLeaderCluster(t *testing.T) (*Server, *leaderProxy, *httptest.Server) {
	t.Helper()
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	leader := New(list)
	proxy := &leaderProxy{}
	proxy.cur.Store(leader)
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	return leader, proxy, ts
}

func tinyList(t *testing.T, primary string) *core.List {
	t.Helper()
	l, err := core.ParseJSON([]byte(`{"sets":[{
	  "primary": "https://` + primary + `",
	  "associatedSites": ["https://blog-of-` + primary + `"],
	  "rationaleBySite": {"https://blog-of-` + primary + `": "same brand"}
	}]}`))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFollowerTracksLeader: a follower polling /v1/list converges to the
// leader's version hash after a leader swap, within the poll cadence,
// and its replication metrics carry the synced hash and a non-negative
// propagation lag.
func TestFollowerTracksLeader(t *testing.T) {
	leader, _, ts := newLeaderCluster(t)
	f := startFollower(t, ts.URL+"/v1/list", 10*time.Millisecond)

	if got, want := serveHash(t, f.srv), serveHash(t, leader); got != want {
		t.Fatalf("boot: follower serves %s, leader %s", got, want)
	}

	swapList(leader, tinyList(t, "example.com"))
	want := serveHash(t, leader)
	waitFor(t, 5*time.Second, func() bool { return serveHash(t, f.srv) == want },
		"follower to catch up with the swapped leader")

	m := f.srv.Replication()
	if m == nil {
		t.Fatal("follower reports no replication state")
	}
	if m.VersionHash != want {
		t.Errorf("replication.version_hash = %.12s, want %.12s", m.VersionHash, want)
	}
	if m.Upstream != ts.URL+"/v1/list" {
		t.Errorf("replication.upstream = %q", m.Upstream)
	}
	if m.LagMillis < 0 {
		t.Errorf("replication.lag_ms = %d, want >= 0", m.LagMillis)
	}
	if m.Swaps < 2 {
		t.Errorf("replication.swaps = %d, want boot + live swap", m.Swaps)
	}

	// The follower answers queries from the synced snapshot.
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sameset?a=example.com&b=blog-of-example.com", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("follower query after sync: status %d", rec.Code)
	}
}

// TestFollower304Streak: an idle leader answers every poll 304, and the
// follower's consecutive-304 streak (its view of leader idleness) grows
// without counting errors.
func TestFollower304Streak(t *testing.T) {
	_, _, ts := newLeaderCluster(t)
	f := startFollower(t, ts.URL+"/v1/list", 5*time.Millisecond)

	waitFor(t, 5*time.Second, func() bool {
		m := f.srv.Replication()
		return m != nil && m.Streak304 >= 5
	}, "the 304 streak to build under an idle leader")

	m := f.srv.Replication()
	if m.PollErrors != 0 || m.LastError != "" {
		t.Errorf("idle leader produced poll errors: %+v", m)
	}
	if m.Polls < m.Streak304 {
		t.Errorf("polls = %d < streak = %d", m.Polls, m.Streak304)
	}
}

// TestFollowerLeaderRestartResync: the leader dies, restarts with a
// changed list at the same URL, and the follower re-syncs to the new
// version on its next successful poll.
func TestFollowerLeaderRestartResync(t *testing.T) {
	leader, proxy, ts := newLeaderCluster(t)
	f := startFollower(t, ts.URL+"/v1/list", 10*time.Millisecond)
	boot := serveHash(t, leader)

	proxy.cur.Store((*Server)(nil))
	waitFor(t, 5*time.Second, func() bool {
		m := f.srv.Replication()
		return m != nil && m.PollErrors > 0
	}, "poll errors while the leader is down")

	restarted := New(tinyList(t, "reborn.example"))
	proxy.cur.Store(restarted)
	want := serveHash(t, restarted)
	waitFor(t, 5*time.Second, func() bool { return serveHash(t, f.srv) == want },
		"follower to resync with the restarted leader")

	m := f.srv.Replication()
	if m.VersionHash != want || m.VersionHash == boot {
		t.Errorf("after restart: replication.version_hash = %.12s, want %.12s", m.VersionHash, want)
	}
	if m.LastError != "" {
		t.Errorf("last_error should clear after a successful poll: %q", m.LastError)
	}
}

// TestFollowerSurvivesLeaderDeath: a dead leader degrades the follower
// to its last synced snapshot — queries keep answering, the outage shows
// up only in the replication metrics.
func TestFollowerSurvivesLeaderDeath(t *testing.T) {
	leader, proxy, ts := newLeaderCluster(t)
	f := startFollower(t, ts.URL+"/v1/list", 5*time.Millisecond)
	synced := serveHash(t, leader)

	proxy.cur.Store((*Server)(nil))
	waitFor(t, 5*time.Second, func() bool {
		m := f.srv.Replication()
		return m != nil && m.PollErrors >= 2
	}, "repeated poll errors against the dead leader")

	if got := serveHash(t, f.srv); got != synced {
		t.Errorf("follower snapshot changed during the outage: %.12s, want %.12s", got, synced)
	}
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sameset?a=bild.de&b=autobild.de", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("follower query during outage: status %d", rec.Code)
	}
	m := f.srv.Replication()
	if m.LastError == "" {
		t.Error("replication.last_error should name the fetch failure")
	}

	// /v1/metrics carries the replication block over the wire.
	rec = httptest.NewRecorder()
	f.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var body MetricsResponse
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Replication == nil || body.Replication.VersionHash != synced {
		t.Errorf("metrics replication block = %+v, want hash %.12s", body.Replication, synced)
	}
}

// TestWatchReportsFailedInstall: a delivery whose list blows the
// store's memory budget installs nothing — the served snapshot and the
// replication state keep naming the last good version, no swap is
// counted, the install error is the delivery's error, /v1/metrics names
// the pending failure, and the log names the failure instead of
// claiming a swap.
func TestWatchReportsFailedInstall(t *testing.T) {
	small, err := amplify.Generate(amplify.Config{Sets: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := amplify.Generate(amplify.Config{Sets: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	smallSnap, err := BuildSnapshot(small, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreWith(4, SnapshotOptions{MemoryBudget: smallSnap.BuildInfo().EstimatedBytes + 1024})
	if _, err := st.AddList(small, core.Version{Source: "boot"}); err != nil {
		t.Fatal(err)
	}
	s := NewFromStore(st)
	var log strings.Builder
	fromLeader := func(l *core.List) source.Swap {
		now := time.Now()
		return source.Swap{List: l, Meta: source.Meta{
			Location: "http://leader/v1/list", Hash: l.Hash(), FetchedAt: now,
			UpstreamVersion: l.Hash(), UpstreamAsOf: now, UpstreamSwappedAt: now,
		}}
	}
	if err := s.install(fromLeader(small), &log); err != nil {
		t.Fatal(err)
	}
	log.Reset()
	if err := s.install(fromLeader(big), &log); err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Errorf("install of the over-budget list: err = %v, want the budget error", err)
	}

	m := metrics(t, s)
	if m.SnapshotHash != small.Hash() {
		t.Errorf("snapshot_hash = %.12s after a failed install, want the last good %.12s", m.SnapshotHash, small.Hash())
	}
	if m.Replication == nil || m.Replication.VersionHash != small.Hash() || m.Replication.Swaps != 1 {
		t.Errorf("replication = %+v after a failed install, want version_hash %.12s and 1 swap", m.Replication, small.Hash())
	}
	if m.ListSwaps != 0 {
		t.Errorf("list_swaps = %d, want 0", m.ListSwaps)
	}
	if m.Install.Failures != 1 || m.Install.PendingHash != big.Hash() || !strings.Contains(m.Install.PendingError, "memory budget") {
		t.Errorf("install = %+v, want 1 failure pending on %.12s with the budget error", m.Install, big.Hash())
	}
	out := log.String()
	if strings.Contains(out, "swapped") || !strings.Contains(out, "failed to install") ||
		!strings.Contains(out, big.Hash()[:12]) || !strings.Contains(out, "memory budget") {
		t.Errorf("log = %q, want the failed install of %.12s and its budget error", out, big.Hash())
	}
}

// TestBudgetedFollowerReportsPendingInstall: a follower whose memory
// budget fits the boot list sees the leader swap to a list over that
// budget, then to one that fits. While it is a version behind, its
// metrics name the pending failure and keep naming the last good
// snapshot; once it catches up, the swap is logged against the list it
// really served before (the store's diff), not the one it never
// installed.
func TestBudgetedFollowerReportsPendingInstall(t *testing.T) {
	leader, _, ts := newLeaderCluster(t)
	boot := leader.Snapshot()
	budget := boot.BuildInfo().EstimatedBytes + 1024
	f := startBudgetedFollower(t, ts.URL+"/v1/list", 5*time.Millisecond, budget)
	lastGood := f.srv.Snapshot()
	if lastGood.hash != boot.hash {
		t.Fatalf("boot: follower serves %.12s, leader %.12s", lastGood.hash, boot.hash)
	}

	over, err := amplify.Generate(amplify.Config{Sets: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	swapList(leader, over)
	waitFor(t, 10*time.Second, func() bool { return f.srv.store.Installs().PendingHash == over.Hash() },
		"the follower to record the over-budget install as pending")
	// Let a few not-modified polls land on top of the failure: the
	// pending failure must outlive them.
	polls := f.srv.Replication().Polls
	waitFor(t, 10*time.Second, func() bool { return f.srv.Replication().Polls >= polls+3 }, "more polls")
	m := metrics(t, f.srv)
	if m.Install.PendingHash != serveHash(t, leader) || !strings.Contains(m.Install.PendingError, "memory budget") || m.Install.Failures != 1 {
		t.Errorf("install = %+v while behind, want 1 failure pending on the leader's %.12s with the budget error", m.Install, serveHash(t, leader))
	}
	if m.SnapshotHash != lastGood.hash || m.Replication == nil || m.Replication.VersionHash != lastGood.hash {
		t.Errorf("snapshot_hash = %.12s, replication = %+v while behind, want the last good %.12s", m.SnapshotHash, m.Replication, lastGood.hash)
	}
	if m.Replication.PollErrors == 0 {
		t.Errorf("replication.poll_errors = 0 after a failed install")
	}

	fits, err := amplify.Generate(amplify.Config{Sets: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	swapList(leader, fits)
	want := fits.Hash()
	line := "hash " + want[:12] + "): "
	waitFor(t, 10*time.Second, func() bool { return strings.Contains(f.log.String(), line) },
		"the follower to install and log the fitting list")
	cur := f.srv.Snapshot()
	if cur.hash != want {
		t.Fatalf("follower serves %.12s, want %.12s", cur.hash, want)
	}
	out := f.log.String()
	got := strings.TrimSpace(out[strings.Index(out, line)+len(line):])
	if d := f.srv.store.Diff(lastGood, cur).Summary(); got != d {
		t.Errorf("logged diff %q, want the served %.12s → %.12s diff %q", got, lastGood.hash, want, d)
	}
	if m := metrics(t, f.srv); m.Install.PendingHash != "" || m.Install.PendingError != "" || m.Install.Failures != 1 {
		t.Errorf("install = %+v after catching up, want the pending failure cleared and 1 failure counted", m.Install)
	}
}

// TestFollowerVersionHashMatchesSnapshot: across a churn of leader
// swaps with no pending failure, every /v1/metrics sample names one
// version — replication.version_hash equals snapshot_hash.
func TestFollowerVersionHashMatchesSnapshot(t *testing.T) {
	leader, _, ts := newLeaderCluster(t)
	f := startFollower(t, ts.URL+"/v1/list", 2*time.Millisecond)

	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		n := 0
		defer func() { sampled <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Decoded here, not with metrics: t.Fatal must stay on the
			// test goroutine.
			rec := httptest.NewRecorder()
			f.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
			var m MetricsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
				t.Errorf("sample %d: %v", n, err)
				return
			}
			n++
			if m.Replication == nil || m.Replication.VersionHash != m.SnapshotHash || m.Install.PendingHash != "" {
				t.Errorf("sample %d: snapshot_hash %.12s, replication %+v, install %+v", n, m.SnapshotHash, m.Replication, m.Install)
				return
			}
		}
	}()
	const swaps = 12
	for i := 0; i < swaps; i++ {
		swapList(leader, tinyList(t, fmt.Sprintf("churn%d.example", i)))
		want := serveHash(t, leader)
		waitFor(t, 10*time.Second, func() bool { return serveHash(t, f.srv) == want },
			fmt.Sprintf("follower to catch up with leader swap %d", i))
	}
	close(stop)
	if n := <-sampled; n < swaps {
		t.Errorf("only %d metrics samples across %d swaps", n, swaps)
	}
	if m := f.srv.Replication(); m.Swaps != swaps+1 {
		t.Errorf("replication.swaps = %d, want boot + %d", m.Swaps, swaps)
	}
}

// TestWatchInstallsFileSwaps: a revision the watcher delivers is
// installed and logged with the store's own diff against the version it
// superseded. That diff is computed once, on the install, and reading it
// for the log does not count as a request-path cache hit or miss. A
// retain-1 store, which evicts the superseded version in the same
// install, logs the same diff.
func TestWatchInstallsFileSwaps(t *testing.T) {
	for _, retain := range []int{4, 1} {
		t.Run(fmt.Sprintf("retain%d", retain), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "list.json")
			if err := os.WriteFile(path, []byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			src := source.NewFileSource(path)
			list, meta, err := src.Fetch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := NewStore(retain)
			if _, err := st.AddList(list, meta.Version()); err != nil {
				t.Fatal(err)
			}
			s := NewFromStore(st)
			ctx, cancel := context.WithCancel(context.Background())
			log := &syncLog{}
			done := s.Watch(ctx, source.NewWatcher(src, 5*time.Millisecond, nil), meta, log)
			defer func() { cancel(); <-done }()
			before := metrics(t, s)
			if before.Replication != nil {
				t.Errorf("a file-sourced node reports replication state: %+v", before.Replication)
			}

			// Publish a change under a future mtime so the stat gate opens.
			if err := os.WriteFile(path, []byte(`{"sets":[
			  {"primary":"https://a.com","associatedSites":["https://b.com"]},
			  {"primary":"https://c.com","associatedSites":["https://d.com"]}
			]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			future := time.Now().Add(2 * time.Second)
			if err := os.Chtimes(path, future, future); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool { return strings.Contains(log.String(), "swapped list") },
				"the watcher to install the change")
			if s.Snapshot().NumSets() != 2 {
				t.Errorf("serving %d sets, want 2", s.Snapshot().NumSets())
			}
			if out := log.String(); !strings.HasSuffix(out, "): +sets 1 (c.com)\n") {
				t.Errorf("log = %q, want the +sets 1 (c.com) diff", out)
			}
			after := metrics(t, s)
			if d := after.DiffCache.Computes - before.DiffCache.Computes; retain > 1 && d != 1 {
				t.Errorf("diff_cache.computes rose by %d on one swap, want 1", d)
			}
			if after.DiffCache.Hits != before.DiffCache.Hits || after.DiffCache.Misses != before.DiffCache.Misses {
				t.Errorf("diff_cache hits/misses moved: %+v → %+v", before.DiffCache, after.DiffCache)
			}
		})
	}
}
