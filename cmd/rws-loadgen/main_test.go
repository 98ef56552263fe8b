package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/serve"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-target", "http://127.0.0.1:8080/", "-workers", "4", "-duration", "2s", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.target != "http://127.0.0.1:8080" || cfg.workers != 4 || cfg.duration != 2*time.Second || cfg.seed != 7 {
		t.Errorf("parseFlags = %+v", cfg)
	}
	if tg := cfg.targets[0]; tg.addr != "127.0.0.1:8080" || tg.host != "127.0.0.1:8080" || tg.weight != 1 {
		t.Errorf("target = %+v", tg)
	}
	// Several comma-separated entries, each with an optional weight; a
	// port-less URL dials :80 but keeps its bare Host header.
	cfg, err = parseFlags([]string{"-target", "http://leader:8080=2, http://f1/"})
	if err != nil {
		t.Fatal(err)
	}
	want := []targetSpec{
		{url: "http://leader:8080", weight: 2, addr: "leader:8080", host: "leader:8080"},
		{url: "http://f1", weight: 1, addr: "f1:80", host: "f1"},
	}
	if len(cfg.targets) != 2 || cfg.targets[0] != want[0] || cfg.targets[1] != want[1] ||
		cfg.target != "http://leader:8080,http://f1" {
		t.Errorf("targets = %+v (%s), want %+v", cfg.targets, cfg.target, want)
	}
	for _, bad := range [][]string{
		{},                                    // missing target
		{"-target", ","},                      // no URLs
		{"-target", "http://x", "positional"}, // positional arg
		{"-target", "https://x"},              // the load client speaks plain HTTP/1.1
		{"-target", "x:8080"},
		{"-target", "http://x/prefix"},
		{"-target", "http://x=0"},
		{"-target", "http://x,http://y=two"},
		{"-targets", "http://x"}, // folded into -target
		{"-target", "http://x", "-fast"},
		{"-target", "http://x", "-workers", "0"},
		{"-target", "http://x", "-duration", "0s"},
		{"-target", "http://x", "-mix", "sameset=0"},
		{"-target", "http://x", "-mix", "nosuch=1"},
		{"-target", "http://x", "-mix", "sameset"},
		{"-target", "http://x", "-batch", "0"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) should fail", bad)
		}
	}
}

func TestParseMixPartial(t *testing.T) {
	w, err := parseMix("sameset=2, batch=1")
	if err != nil {
		t.Fatal(err)
	}
	if w[scSameSet] != 2 || w[scBatch] != 1 || w[scSet] != 0 || w[scPartition] != 0 {
		t.Errorf("weights = %v", w)
	}
	// A duplicate key zeroing out the only positive weight must be
	// rejected, not panic the workers with an empty picker.
	if _, err := parseMix("sameset=4,sameset=0"); err == nil {
		t.Error("all-zero final weights should be rejected")
	}
	// Last duplicate wins when the result is still valid.
	w, err = parseMix("sameset=4,sameset=2")
	if err != nil || w[scSameSet] != 2 {
		t.Errorf("duplicate key: weights = %v, %v", w, err)
	}
}

// TestRunAgainstLiveServer drives the closed loop against an
// in-process serve.Server for a short burst and checks the report is
// coherent: requests flowed, no errors, percentiles ordered.
func TestRunAgainstLiveServer(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(list))
	defer ts.Close()

	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-target", ts.URL, "-workers", "2", "-duration", "300ms", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Mode != "closed" || rep.OfferedRate != 0 || rep.Targets != nil {
		t.Errorf("closed-loop single-target fields wrong: %+v", rep)
	}
	if rep.Requests == 0 || rep.ReqPerSec <= 0 {
		t.Errorf("no load generated: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors against a healthy server: %+v", rep.Errors, rep)
	}
	if rep.P50Micros > rep.P95Micros || rep.P95Micros > rep.P99Micros || rep.P99Micros > rep.MaxMicros {
		t.Errorf("percentiles out of order: %+v", rep)
	}
	var perScenario uint64
	for _, s := range rep.Scenarios {
		perScenario += s.Requests
	}
	if perScenario != rep.Requests {
		t.Errorf("scenario counts sum to %d, want %d", perScenario, rep.Requests)
	}
}

// TestMultiTargetRun spreads one run over two live servers by weight:
// the report carries a per-target block whose counts add up to the
// aggregate and follow the 2:1 ring.
func TestMultiTargetRun(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	a := httptest.NewServer(serve.New(list))
	defer a.Close()
	b := httptest.NewServer(serve.New(list))
	defer b.Close()
	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-target", a.URL + "=2," + b.URL, "-workers", "1", "-duration", "300ms", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 || rep.Targets[0].Target != a.URL || rep.Targets[0].Weight != 2 || rep.Targets[1].Target != b.URL {
		t.Fatalf("targets = %+v", rep.Targets)
	}
	ta, tb := rep.Targets[0].Requests, rep.Targets[1].Requests
	if ta+tb != rep.Requests || rep.Errors != 0 {
		t.Errorf("per-target %d+%d requests, aggregate %d (%d errors)", ta, tb, rep.Requests, rep.Errors)
	}
	// One worker walks the ring a,a,b: a gets twice b's share, give or
	// take the walk's last partial lap.
	if ta < 2*tb || ta > 2*tb+2 {
		t.Errorf("weight 2:1 split as %d:%d", ta, tb)
	}
}

// TestRunFailsOnBrokenTarget: a target answering 500 to everything must
// make run return an error (non-zero exit), so the CI smoke actually
// detects a broken serving plane instead of passing on a sea of errors.
func TestRunFailsOnBrokenTarget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-workers", "1", "-duration", "100ms",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "requests failed") {
		t.Errorf("run against a 500ing target: err = %v, want a failure", err)
	}
}

// TestTextReport checks the human-readable rendering.
func TestTextReport(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(list))
	defer ts.Close()

	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-target", ts.URL, "-workers", "1", "-duration", "100ms", "-mix", "sameset=1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"req/s", "p50=", "p99=", "sameset"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "partition") {
		t.Errorf("zero-weight scenarios should be omitted:\n%s", text)
	}
}

// TestDeterministicSelection: one worker, same seed, same request
// sequence — the scenario tallies must match run-to-run.
func TestDeterministicSelection(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-target", "http://unused.invalid", "-seed", "42"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(cfg, list)
	if err != nil {
		t.Fatal(err)
	}
	seq := func() []string {
		rng := newWorkerRNG(cfg.seed, 0)
		var picks []string
		for i := 0; i < 50; i++ {
			sc := g.pick[rng.Intn(len(g.pick))]
			a, b := g.pair(rng)
			picks = append(picks, scenarioNames[sc]+":"+a+","+b)
		}
		return picks
	}
	first, second := seq(), seq()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pick %d differs: %q vs %q", i, first[i], second[i])
		}
	}
}

// timelineTarget serves a two-version store so the versioned scenarios
// have something to time-travel over.
func timelineTarget(t *testing.T) *httptest.Server {
	t.Helper()
	oldList, err := core.ParseJSON([]byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	newList, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	st := serve.NewStore(4)
	jan := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	st.AddSnapshot(serve.NewSnapshot(oldList), core.Version{Source: "timeline:2023-01", ObservedAt: jan, AsOf: jan})
	mar := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	st.AddSnapshot(serve.NewSnapshot(newList), core.Version{Source: "timeline:2024-03", ObservedAt: mar, AsOf: mar})
	ts := httptest.NewServer(serve.NewFromStore(st))
	t.Cleanup(ts.Close)
	return ts
}

// TestVersionedMix drives the asof and diff scenarios against a live
// version store: the generator must prime itself from /v1/versions and
// complete the run error-free.
func TestVersionedMix(t *testing.T) {
	ts := timelineTarget(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-workers", "2", "-duration", "300ms", "-json",
		"-mix", "sameset=2,asof=2,diff=1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors in the versioned mix: %+v", rep.Errors, rep)
	}
	byName := map[string]uint64{}
	for _, s := range rep.Scenarios {
		byName[s.Scenario] = s.Requests
	}
	if byName["asof"] == 0 || byName["diff"] == 0 {
		t.Errorf("versioned scenarios never ran: %+v", rep.Scenarios)
	}
}

// TestVersionedMixNeedsVersionPlane: asking for asof against a target
// without /v1/versions (or an unreachable one) fails up front with a
// useful message instead of a sea of per-request errors.
func TestVersionedMixPrimeFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-workers", "1", "-duration", "100ms", "-mix", "asof=1",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "/v1/versions") {
		t.Errorf("err = %v, want a priming failure naming /v1/versions", err)
	}
}

// TestChurnMix drives the churn scenario against a live version store:
// ordered (from, to) pairs drawn from /v1/versions must complete the
// run error-free.
func TestChurnMix(t *testing.T) {
	ts := timelineTarget(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-workers", "2", "-duration", "300ms", "-json",
		"-mix", "sameset=2,diff=1,churn=1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors in the churn mix: %+v", rep.Errors, rep)
	}
	byName := map[string]uint64{}
	for _, s := range rep.Scenarios {
		byName[s.Scenario] = s.Requests
	}
	if byName["churn"] == 0 {
		t.Errorf("churn scenario never ran: %+v", rep.Scenarios)
	}
}

func TestParseFlagsAmplify(t *testing.T) {
	cfg, err := parseFlags([]string{"-target", "http://x", "-amplify", "2000", "-amplify-seed", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.amplify != 2000 || cfg.amplifySeed != 4 {
		t.Errorf("parseFlags = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-target", "http://x", "-amplify", "10", "-list", "x.json"}); err == nil {
		t.Error("-amplify with -list should be rejected")
	}
}

// TestAmplifiedHostUniverse proves the generator can draw its host
// universe from an amplified list and that the same -amplify flags
// reproduce the same universe (the property that makes scale-tier runs
// comparable across machines).
func TestAmplifiedHostUniverse(t *testing.T) {
	ctx := context.Background()
	a, err := loadHosts(ctx, config{amplify: 150, amplifySeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadHosts(ctx, config{amplify: 150, amplifySeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSets() != 150 || a.Hash() != b.Hash() {
		t.Errorf("amplified universes differ: %d sets %.12s vs %.12s", a.NumSets(), a.Hash(), b.Hash())
	}
}
