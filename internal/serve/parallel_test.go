package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// equalSnapshots holds two snapshots to exact equality across every
// public query surface and the precomputed verdict tables: host-index
// answers for every member site (plus off-list probes), the /v1/set
// member table, role tables, composition stats, and the full per-policy
// sameSet/cross verdict tables.
func equalSnapshots(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.Hash() != want.Hash() {
		t.Fatalf("%s: hash %.12s != %.12s", label, got.Hash(), want.Hash())
	}
	if got.NumSets() != want.NumSets() || got.NumSites() != want.NumSites() {
		t.Fatalf("%s: sizes (%d sets, %d sites) != (%d sets, %d sites)",
			label, got.NumSets(), got.NumSites(), want.NumSets(), want.NumSites())
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v != %+v", label, got.stats, want.stats)
	}
	for r := core.Role(0); int(r) < numRoles; r++ {
		g, w := got.SitesByRole(r), want.SitesByRole(r)
		if len(g) != len(w) {
			t.Fatalf("%s: role %s table has %d entries, want %d", label, r, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: role %s entry %d = %q, want %q", label, r, i, g[i], w[i])
			}
		}
	}
	// Verdict tables, cell by cell.
	for pid := 0; pid < int(numPolicies); pid++ {
		if got.cross[pid] != want.cross[pid] {
			t.Errorf("%s: policy %d cross verdict %+v != %+v", label, pid, got.cross[pid], want.cross[pid])
		}
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if got.sameSet[pid][r1][r2] != want.sameSet[pid][r1][r2] {
					t.Errorf("%s: policy %d sameSet[%s][%s] = %+v, want %+v", label, pid,
						core.Role(r1), core.Role(r2), got.sameSet[pid][r1][r2], want.sameSet[pid][r1][r2])
				}
			}
		}
	}
	// Every member site answers identically on the lookup surfaces.
	for _, set := range want.List().Sets() {
		for _, m := range set.Members() {
			ge, gok := got.lookup(m.Site)
			we, wok := want.lookup(m.Site)
			if gok != wok || ge.role != we.role || ge.set.Primary != we.set.Primary {
				t.Fatalf("%s: lookup(%q) = (%v, role %s, primary %s), want (%v, role %s, primary %s)",
					label, m.Site, gok, ge.role, ge.set.Primary, wok, we.role, we.set.Primary)
			}
			gs, ws := got.Set(m.Site), want.Set(m.Site)
			if gs.Found != ws.Found || gs.Role != ws.Role || gs.Primary != ws.Primary || len(gs.Members) != len(ws.Members) {
				t.Fatalf("%s: Set(%q) = %+v, want %+v", label, m.Site, gs, ws)
			}
			for i := range gs.Members {
				if gs.Members[i] != ws.Members[i] {
					t.Fatalf("%s: Set(%q).Members[%d] = %+v, want %+v", label, m.Site, i, gs.Members[i], ws.Members[i])
				}
			}
		}
	}
	// Partition answers on a cross-section of pairs: same-set, cross-set,
	// same-host, and off-list, under every policy spelling.
	sets := want.List().Sets()
	probeA := sets[0].Members()
	probeB := sets[len(sets)/2].Members()
	pairs := [][2]string{
		{probeA[0].Site, probeA[len(probeA)-1].Site},
		{probeA[0].Site, probeB[0].Site},
		{probeB[0].Site, probeB[0].Site},
		{probeA[0].Site, "off-list.invalid"},
		{"off-a.invalid", "off-b.invalid"},
	}
	for _, policy := range []string{"rws", "strict", "prompt", "legacy"} {
		for _, p := range pairs {
			gp, gerr := got.Partition(policy, p[0], p[1])
			wp, werr := want.Partition(policy, p[0], p[1])
			if (gerr != nil) != (werr != nil) || gp != wp {
				t.Fatalf("%s: Partition(%s, %q, %q) = (%+v, %v), want (%+v, %v)",
					label, policy, p[0], p[1], gp, gerr, wp, werr)
			}
			gss, wss := got.SameSet(p[0], p[1]), want.SameSet(p[0], p[1])
			if gss != wss {
				t.Fatalf("%s: SameSet(%q, %q) = %+v, want %+v", label, p[0], p[1], gss, wss)
			}
		}
	}
	equalMemberTables(t, label, got, want)
}

// equalMemberTables holds the /v1/set member tables of two snapshots
// equal row by row, in set-index order.
func equalMemberTables(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if len(got.members) != len(want.members) {
		t.Fatalf("%s: member table has %d rows, want %d", label, len(got.members), len(want.members))
	}
	for i := range want.members {
		g, w := got.members[i], want.members[i]
		if len(g) != len(w) {
			t.Fatalf("%s: members[%d] has %d entries, want %d", label, i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: members[%d][%d] = %+v, want %+v", label, i, j, g[j], w[j])
			}
		}
	}
}

// buildSerial is the single-threaded reference construction the parallel
// build is held to: one pass over the sets in list order filling a
// single-shard host index, the member table, and the role tables, then a
// full-scan verdict builder per policy.
func buildSerial(list *core.List) *Snapshot {
	s := newSnapshot(list, 1)
	hosts := make(map[string]hostEntry, s.numSites)
	for i, set := range s.sets {
		ms := set.Members()
		row := make([]SetMember, len(ms))
		for j, m := range ms {
			row[j] = SetMember{Site: m.Site, Role: m.Role.String(), AliasOf: m.AliasOf}
			hosts[m.Site] = hostEntry{set: set, setIdx: int32(i), role: m.Role}
			s.byRole[m.Role] = append(s.byRole[m.Role], m.Site)
		}
		s.members[i] = row
	}
	s.hostShards[0] = hosts
	for r := range s.byRole {
		sort.Strings(s.byRole[r])
	}
	for pid := range s.policies {
		buildVerdictsSerial(s, policyID(pid))
	}
	return s
}

// buildVerdictsSerial fills the partition-verdict tables for one policy
// by running the fresh-profile simulation once per reachable cell, using
// the first member pair (in list order, then Members order) exhibiting
// each (topRole, embRole) combination.
func buildVerdictsSerial(s *Snapshot, pid policyID) {
	live := s.policies[pid].live
	v := browser.EvaluateFresh(live, "cross-top.invalid", "cross-embedded.invalid")
	s.cross[pid] = verdict{decision: v.Decision, granted: v.Granted, filled: true}
	for _, set := range s.sets {
		ms := set.Members()
		for _, top := range ms {
			for _, emb := range ms {
				if top.Site == emb.Site {
					continue
				}
				cell := &s.sameSet[pid][top.Role][emb.Role]
				if cell.filled {
					continue
				}
				v := browser.EvaluateFresh(live, top.Site, emb.Site)
				*cell = verdict{decision: v.Decision, granted: v.Granted, filled: true}
			}
		}
	}
}

// TestParallelSnapshotMatchesSerial is the construction's equivalence
// property: sharded parallel construction produces a snapshot
// semantically identical to the serial reference build — over
// the embedded real list and randomized amplified lists, for several
// seeds × shard counts. CI runs the package under -race, so this also
// proves the phase-A/phase-B writes are race-free.
func TestParallelSnapshotMatchesSerial(t *testing.T) {
	lists := map[string]*core.List{}
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	lists["embedded"] = embedded
	for _, seed := range []int64{1, 2, 3} {
		list, err := amplify.Generate(amplify.Config{Sets: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lists[fmt.Sprintf("amplified-seed%d", seed)] = list
	}
	tiny, err := amplify.Generate(amplify.Config{Sets: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lists["tiny"] = tiny

	for name, list := range lists {
		serial := buildSerial(list)
		for _, shards := range []int{1, 2, 3, 8} {
			par, err := BuildSnapshot(list, SnapshotOptions{Shards: shards})
			if err != nil {
				t.Fatalf("%s/shards=%d: parallel build: %v", name, shards, err)
			}
			equalSnapshots(t, fmt.Sprintf("%s/shards=%d", name, shards), par, serial)
		}
	}
}

// TestNewSnapshotUsesParallelPath pins the default constructor to the
// parallel path with GOMAXPROCS-derived shards.
func TestNewSnapshotUsesParallelPath(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	info := NewSnapshot(list).BuildInfo()
	if want := min(runtime.GOMAXPROCS(0), list.NumSets()); info.Shards != want {
		t.Errorf("Shards = %d, want GOMAXPROCS-derived %d", info.Shards, want)
	}
	if info.Shards < 1 {
		t.Errorf("Shards = %d, want >= 1", info.Shards)
	}
	if info.EstimatedBytes <= 0 || info.BuildNanos <= 0 {
		t.Errorf("BuildInfo not populated: %+v", info)
	}
}

// TestMemoryBudgetDegradesThenFails drives the budget's two outcomes
// below unlimited: a budget that holds the query tables but not the
// /v1/list export body drops the body (tier list-dropped), and /v1/list
// then encodes the same bytes per request; a budget below the query
// tables fails the build.
func TestMemoryBudgetDegradesThenFails(t *testing.T) {
	list, err := amplify.Generate(amplify.Config{Sets: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildSnapshot(list, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info := full.BuildInfo()
	if info.Tier != "full" || full.respList == nil {
		t.Fatalf("unlimited build degraded: %+v", info)
	}
	tables := info.EstimatedBytes - int64(len(full.respList))

	exact, err := BuildSnapshot(list, SnapshotOptions{MemoryBudget: info.EstimatedBytes})
	if err != nil || exact.BuildInfo().Tier != "full" {
		t.Fatalf("budget equal to the full footprint: tier %q, err %v; want full", exact.BuildInfo().Tier, err)
	}

	dropped, err := BuildSnapshot(list, SnapshotOptions{MemoryBudget: info.EstimatedBytes - 1})
	if err != nil {
		t.Fatalf("budget just under the full footprint should drop the export body, not fail: %v", err)
	}
	dinfo := dropped.BuildInfo()
	if dinfo.Tier != "list-dropped" || dropped.respList != nil {
		t.Errorf("budget under the full footprint: tier %q, export body kept %v; want list-dropped", dinfo.Tier, dropped.respList != nil)
	}
	if dinfo.EstimatedBytes != tables {
		t.Errorf("list-dropped estimate = %d, want the query tables' %d", dinfo.EstimatedBytes, tables)
	}
	// The list-dropped snapshot still exports the same bytes, encoded per
	// request.
	for _, path := range []string{"/v1/list", "/v1/list?pretty=1"} {
		want := httptest.NewRecorder()
		NewFromStore(storeOf(t, full)).ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
		got := httptest.NewRecorder()
		NewFromStore(storeOf(t, dropped)).ServeHTTP(got, httptest.NewRequest(http.MethodGet, path, nil))
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Errorf("%s: list-dropped answered %d with %d bytes, want the full tier's %d bytes", path, got.Code, got.Body.Len(), want.Body.Len())
		}
	}

	if _, err := BuildSnapshot(list, SnapshotOptions{MemoryBudget: tables}); err != nil {
		t.Errorf("budget equal to the query tables should build: %v", err)
	}
	if _, err := BuildSnapshot(list, SnapshotOptions{MemoryBudget: tables - 1}); err == nil {
		t.Error("budget under the query tables should fail")
	}
}

// storeOf returns a store holding snap as its current version.
func storeOf(t *testing.T, snap *Snapshot) *Store {
	t.Helper()
	st := NewStore(1)
	st.AddSnapshot(snap, core.Version{Source: "test"})
	return st
}

// TestStoreWithBudgetRejectsOversizedList proves AddList reports the
// budget failure and leaves the previous current version serving.
func TestStoreWithBudgetRejectsOversizedList(t *testing.T) {
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
	if _, err := st.AddList(small, core.Version{Source: "test"}); err != nil {
		t.Fatalf("small list should fit: %v", err)
	}
	if _, err := st.AddList(big, core.Version{Source: "test"}); err == nil {
		t.Fatal("2000-set list should blow a small-list budget")
	}
	if cur := st.Current(); cur == nil || cur.Hash() != small.Hash() {
		t.Error("failed AddList disturbed the current version")
	}
	if st.Len() != 1 {
		t.Errorf("store retains %d versions, want 1", st.Len())
	}
}
