package rwskit

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSourceFacade: the list-ingestion plane is reachable through the
// public facade — OpenSource dispatches, Fetch gates on change, and the
// watcher constructor wires a ListSource.
func TestSourceFacade(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "list.json")
	const body = `{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var src ListSource = OpenSource(path)
	list, meta, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.NumSets() != 1 || meta.Hash == "" || meta.Location != path {
		t.Errorf("fetch = %d sets, meta %+v", list.NumSets(), meta)
	}
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrListNotModified) {
		t.Errorf("unchanged fetch: err = %v, want ErrListNotModified", err)
	}
	if w := NewSourceWatcher(src, 0, nil); w == nil {
		t.Error("NewSourceWatcher returned nil")
	}
}

func TestSnapshotQueries(t *testing.T) {
	list, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if list.NumSets() != 41 {
		t.Errorf("NumSets = %d, want 41", list.NumSets())
	}
	if !list.SameSet("bild.de", "autobild.de") {
		t.Error("bild.de and autobild.de should be related")
	}
	if list.SameSet("bild.de", "ya.ru") {
		t.Error("bild.de and ya.ru should not be related")
	}
	set, role, ok := list.FindSet("webvisor.com")
	if !ok || role != RoleAssociated || set.Primary != "ya.ru" {
		t.Errorf("FindSet(webvisor.com) = %v/%v/%v", set, role, ok)
	}
}

func TestParseListRoundTrip(t *testing.T) {
	list, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := list.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseList(raw)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumSets() != list.NumSets() || again.NumSites() != list.NumSites() {
		t.Error("round trip changed counts")
	}
}

func TestETLDPlusOneAndSLD(t *testing.T) {
	e, err := ETLDPlusOne("www.example.co.uk")
	if err != nil || e != "example.co.uk" {
		t.Errorf("ETLDPlusOne = %q, %v", e, err)
	}
	s, err := SLD("poalim.xyz")
	if err != nil || s != "poalim" {
		t.Errorf("SLD = %q, %v", s, err)
	}
	if _, err := ETLDPlusOne("com"); err == nil {
		t.Error("bare suffix should error")
	}
}

func TestValidateSetOffline(t *testing.T) {
	good, err := ParseSet([]byte(`{"primary":"https://example.com",
	  "associatedSites":["https://other.com"],
	  "rationaleBySite":{"https://other.com":"branding"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep := ValidateSetOffline(context.Background(), good); !rep.Passed() {
		t.Errorf("good set failed: %v", rep.Issues)
	}
	bad, err := ParseSet([]byte(`{"primary":"https://www.example.com"}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep := ValidateSetOffline(context.Background(), bad); rep.Passed() {
		t.Error("subdomain primary should fail validation")
	}
}

func TestBrowserPolicies(t *testing.T) {
	list, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Chrome+RWS links same-set visits; strict does not.
	rws := NewRWSBrowser(list)
	f := rws.VisitTop("bild.de").Embed("autobild.de")
	if d := f.RequestStorageAccess(); !d.Granted() {
		t.Errorf("RWS browser denied same-set access: %v", d)
	}
	strict := NewStrictBrowser()
	f2 := strict.VisitTop("bild.de").Embed("autobild.de")
	if d := f2.RequestStorageAccess(); d.Granted() {
		t.Errorf("strict browser granted access: %v", d)
	}
	prompted := 0
	pb := NewPromptBrowser(func(embedded, top string) bool { prompted++; return true })
	if d := pb.VisitTop("a.com").Embed("b.com").RequestStorageAccess(); !d.Granted() || prompted != 1 {
		t.Errorf("prompt browser: %v, prompts=%d", d, prompted)
	}
	legacy := NewLegacyBrowser()
	if !legacy.VisitTop("a.com").Embed("tracker.example").HasStorageAccess() {
		t.Error("legacy browser should be unpartitioned")
	}
}

func TestRunExperimentByID(t *testing.T) {
	a, err := RunExperiment(context.Background(), 1, "figure3")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "figure3" || !strings.Contains(a.Rendered, "Associated sites (108)") {
		t.Errorf("unexpected artifact: %s\n%s", a.ID, a.Rendered)
	}
	if _, err := RunExperiment(context.Background(), 1, "nope"); err == nil {
		t.Error("unknown experiment should error")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error should name the ID: %v", err)
	} else if msg := err.Error(); !strings.Contains(msg, "valid:") ||
		!strings.Contains(msg, "figure3") || !strings.Contains(msg, "table1") {
		// The message must be self-diagnosing: every valid ID, sorted.
		t.Errorf("error should list the valid IDs: %v", err)
	} else if f1 := strings.Index(msg, "figure1"); f1 > strings.Index(msg, "table1") {
		t.Errorf("valid IDs should be sorted: %v", err)
	}
}

func TestExperimentsListStable(t *testing.T) {
	es := Experiments()
	if len(es) != 12 {
		t.Fatalf("experiments = %d, want 12", len(es))
	}
	if es[0].ID != "table1" || es[11].ID != "figure9" {
		t.Errorf("order: first=%s last=%s", es[0].ID, es[11].ID)
	}
}

func TestOwnershipComparisonFacade(t *testing.T) {
	list, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	entities, err := ParseEntitiesList([]byte(`{
	  "entities": {
	    "Bild": {"properties": ["bild.de", "autobild.de"], "resources": []}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	c := CompareOwnership(entities, list)
	if c.RWSSites != list.NumSites() {
		t.Errorf("RWSSites = %d, want %d", c.RWSSites, list.NumSites())
	}
	if c.CoveredByEntity < 2 {
		t.Errorf("covered = %d, want >= 2 (bild.de + autobild.de)", c.CoveredByEntity)
	}
}

func TestIndicatingRWSBrowserFacade(t *testing.T) {
	list, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, p := NewIndicatingRWSBrowser(list)
	b.VisitTop("bild.de").Embed("autobild.de").RequestStorageAccess()
	if len(p.SilentGrants()) != 1 {
		t.Errorf("silent grants = %d, want 1", len(p.SilentGrants()))
	}
}

func TestCanonicalHostFacade(t *testing.T) {
	for _, spelling := range []string{
		"bild.de", "HTTPS://BILD.DE:443/", "http://bild.de", "bild.de.",
	} {
		if got := CanonicalHost(spelling); got != "bild.de" {
			t.Errorf("CanonicalHost(%q) = %q, want bild.de", spelling, got)
		}
	}
}

func TestServerSnapshotFacade(t *testing.T) {
	list, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := NewServerSnapshot(list)
	if snap.NumSets() != list.NumSets() || snap.Hash() != list.Hash() {
		t.Errorf("snapshot = %d sets / %s, want %d / %s",
			snap.NumSets(), snap.Hash(), list.NumSets(), list.Hash())
	}
	srv := NewServer(list)
	srv.Store().AddSnapshot(snap, Version{Source: "swap"})
	if srv.Snapshot() != snap {
		t.Error("Store().AddSnapshot should install the prebuilt snapshot")
	}
	resp := snap.SameSet("https://bild.de:443", "autobild.de")
	if !resp.SameSet || resp.Primary != "bild.de" {
		t.Errorf("snapshot SameSet = %+v", resp)
	}
}

// TestServerStoreFacade: the version-store surface — preloading
// versions, time-travel resolution, and serving from a store — works
// through the public facade.
func TestServerStoreFacade(t *testing.T) {
	oldList, err := ParseList([]byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	newList, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := NewServerStore(4)
	jan := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	st.AddSnapshot(NewServerSnapshot(oldList), Version{Source: "timeline:2023-01", ObservedAt: jan, AsOf: jan})
	mar := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	st.AddSnapshot(NewServerSnapshot(newList), Version{Source: "timeline:2024-03", ObservedAt: mar, AsOf: mar})

	if st.Len() != 2 || st.Cap() != 4 {
		t.Errorf("store = %d/%d", st.Len(), st.Cap())
	}
	srv := NewServerFromStore(st)
	if srv.Snapshot().NumSets() != newList.NumSets() {
		t.Errorf("current = %d sets", srv.Snapshot().NumSets())
	}
	snap, ver, err := st.Resolve("2023-06")
	if err != nil || snap.NumSets() != 1 || ver.Source != "timeline:2023-01" {
		t.Errorf("Resolve(2023-06) = %d sets, %+v, %v", snap.NumSets(), ver, err)
	}
	infos := st.Versions()
	if len(infos) != 2 || !infos[1].Current {
		t.Errorf("Versions = %+v", infos)
	}
}

// TestComposeDiffsFacade: composing the two legs of a three-revision
// history matches the direct diff.
func TestComposeDiffsFacade(t *testing.T) {
	v1, _ := ParseList([]byte(`{"sets":[{"primary":"https://a.com"}]}`))
	v2, _ := ParseList([]byte(`{"sets":[{"primary":"https://a.com"},{"primary":"https://b.com"}]}`))
	v3, _ := ParseList([]byte(`{"sets":[{"primary":"https://a.com"},{"primary":"https://b.com"},{"primary":"https://c.com"}]}`))
	composed := ComposeDiffs(DiffLists(v1, v2), DiffLists(v2, v3))
	direct := DiffLists(v1, v3)
	if len(composed.AddedSets) != 2 || composed.Summary() != direct.Summary() {
		t.Errorf("composed = %+v, direct = %+v", composed, direct)
	}
}

// TestChurnFacade: the churn digest over a three-revision history
// reports the step counts, cumulative rollup, and lifecycles.
func TestChurnFacade(t *testing.T) {
	v1, _ := ParseList([]byte(`{"sets":[{"primary":"https://a.com"}]}`))
	v2, _ := ParseList([]byte(`{"sets":[{"primary":"https://a.com"},{"primary":"https://b.com"}]}`))
	v3, _ := ParseList([]byte(`{"sets":[{"primary":"https://a.com"},{"primary":"https://c.com"}]}`))
	rep, err := Churn([]*List{v1, v2, v3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 || rep.SetsChurned != 2 || rep.SetsBorn != 2 || rep.SetsDied != 1 {
		t.Errorf("churn = %+v, want 2 steps, 2 churned (b, c), 2 born, 1 died", rep)
	}
	if top := rep.TopVolatile(1); len(top) != 1 || top[0].Volatility == 0 {
		t.Errorf("TopVolatile = %+v", top)
	}
}
