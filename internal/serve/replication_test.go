package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// follower is a Server wired exactly like `rws-serve -list <leader>/v1/list`:
// boot fetch into the store, watcher poll loop delivering swaps, and the
// replication bookkeeping the cmd wires up.
type follower struct {
	srv    *Server
	src    *source.HTTPSource
	cancel context.CancelFunc
	done   chan struct{}
}

func startFollower(t *testing.T, listURL string, poll time.Duration) *follower {
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
	st := NewStore(8)
	st.Add(list, meta.Version())
	srv := NewFromStore(st)
	if !meta.Follows() {
		t.Fatal("boot fetch from a leader /v1/list should carry replication headers")
	}
	srv.FollowUpstream(listURL)
	srv.RecordReplicationSwap(meta)

	w := source.NewWatcher(src, poll, list, nil)
	w.OnPoll = srv.RecordReplicationPoll
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx, srv.SwapDeliver(io.Discard))
	}()
	f := &follower{srv: srv, src: src, cancel: cancel, done: done}
	t.Cleanup(f.stop)
	return f
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

	leader.Swap(tinyList(t, "example.com"))
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

// TestSwapDeliverReportsFailedInstall: a delivery whose list blows the
// store's memory budget installs nothing — the served snapshot and the
// replication state keep naming the last good version, no swap is
// counted, and the log names the failure instead of claiming a swap.
func TestSwapDeliverReportsFailedInstall(t *testing.T) {
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
	deliver := s.SwapDeliver(&log)
	fromLeader := func(l *core.List) source.Swap {
		now := time.Now()
		return source.Swap{List: l, Meta: source.Meta{
			Location: "http://leader/v1/list", Hash: l.Hash(), FetchedAt: now,
			UpstreamVersion: l.Hash(), UpstreamAsOf: now, UpstreamSwappedAt: now,
		}}
	}
	deliver(fromLeader(small))
	log.Reset()
	deliver(fromLeader(big))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.SnapshotHash != small.Hash() {
		t.Errorf("snapshot_hash = %.12s after a failed install, want the last good %.12s", m.SnapshotHash, small.Hash())
	}
	if m.Replication == nil || m.Replication.VersionHash != small.Hash() || m.Replication.Swaps != 1 {
		t.Errorf("replication = %+v after a failed install, want version_hash %.12s and 1 swap", m.Replication, small.Hash())
	}
	if m.ListSwaps != 0 {
		t.Errorf("list_swaps = %d, want 0", m.ListSwaps)
	}
	out := log.String()
	if strings.Contains(out, "swapped") || !strings.Contains(out, "failed to install") ||
		!strings.Contains(out, big.Hash()[:12]) || !strings.Contains(out, "memory budget") {
		t.Errorf("log = %q, want the failed install of %.12s and its budget error", out, big.Hash())
	}
}
