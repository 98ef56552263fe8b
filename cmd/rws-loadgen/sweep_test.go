package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"rwskit/internal/dataset"
	"rwskit/internal/serve"
)

// --- knee ---

func TestKneeOf(t *testing.T) {
	stage := func(offered, achieved float64, errs uint64) Report {
		return Report{OfferedRate: offered, ReqPerSec: achieved, Requests: 1000, Errors: errs, P99Micros: 900}
	}
	rate, reason := kneeOf([]Report{stage(100, 100, 0), stage(200, 199, 0), stage(400, 310, 0)})
	if rate != 200 || !strings.Contains(reason, "achieved only 310") {
		t.Errorf("knee = %g (%s), want 200", rate, reason)
	}
	// Errors unsustain a stage even at full throughput.
	rate, reason = kneeOf([]Report{stage(100, 100, 0), stage(200, 200, 7)})
	if rate != 100 || !strings.Contains(reason, "7 of 1000") {
		t.Errorf("knee = %g (%s), want 100", rate, reason)
	}
	// All sustained: knee is the top rate, reason says so.
	rate, reason = kneeOf([]Report{stage(100, 100, 0), stage(200, 200, 0)})
	if rate != 200 || !strings.Contains(reason, "beyond the sweep") {
		t.Errorf("knee = %g (%s), want 200", rate, reason)
	}
	// A stage over the p99 SLO ends the scan even at full throughput,
	// and a later stage back under it cannot move the knee past it.
	slow := stage(200, 200, 0)
	slow.P99Micros = 176000
	rate, reason = kneeOf([]Report{stage(100, 100, 0), slow, stage(400, 400, 0)})
	if rate != 100 || !strings.Contains(reason, "p99 176ms over the 10ms SLO") {
		t.Errorf("knee = %g (%s), want 100", rate, reason)
	}
	// Nothing sustained.
	if rate, _ = kneeOf([]Report{stage(100, 40, 0)}); rate != 0 {
		t.Errorf("knee = %g, want 0", rate)
	}
}

// --- flags ---

func TestParseFlagsOpenLoop(t *testing.T) {
	cfg, err := parseFlags([]string{"-target", "http://x", "-rate", "5000"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.rate != 5000 {
		t.Errorf("parseFlags = %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-target", "http://x", "-sweep", "100, 200,400"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.sweepRates) != 3 || cfg.sweepRates[2] != 400 {
		t.Errorf("sweepRates = %v", cfg.sweepRates)
	}
	for _, bad := range [][]string{
		{"-target", "http://x", "-arrival", "fixed"}, // Poisson is the only arrival process
		{"-target", "http://x", "-rate", "-1"},
		{"-target", "http://x", "-rate", "100", "-sweep", "200"},
		{"-target", "http://x", "-sweep", "100,bogus"},
		{"-target", "http://x", "-sweep", "400,200"}, // not ascending
		{"-target", "http://x", "-sweep", "0"},
		{"-target", "http://x", "-sweep", ","},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) should fail", bad)
		}
	}
}

// --- open loop against a live server ---

func liveTarget(t *testing.T) *httptest.Server {
	t.Helper()
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(list))
	t.Cleanup(ts.Close)
	return ts
}

// TestOpenLoopRun drives -rate against a live server: the report must
// carry the open-loop fields, hit roughly the offered request count,
// and keep its percentiles ordered. 100-pair batches take the chunked
// response path through the load client.
func TestOpenLoopRun(t *testing.T) {
	ts := liveTarget(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-workers", "2", "-duration", "400ms",
		"-rate", "500", "-json", "-batch", "100",
		"-mix", "sameset=2,set=2,partition=1,batch=1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.Arrival != "poisson" || rep.OfferedRate != 500 {
		t.Errorf("open-loop fields missing: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors against a healthy server", rep.Errors)
	}
	// 500 req/s over 400ms is ~200 requests. The schedule, not worker
	// count, sets the pace — accept a generous band for CI jitter.
	if rep.Requests < 100 || rep.Requests > 320 {
		t.Errorf("%d requests at 500 req/s over 400ms, want ~200", rep.Requests)
	}
	if rep.P50Micros > rep.P90Micros || rep.P90Micros > rep.P99Micros ||
		rep.P99Micros > rep.P999Micros || rep.P999Micros > rep.MaxMicros {
		t.Errorf("percentiles out of order: %+v", rep)
	}
}

// TestSweepRun steps two offered rates and checks the sweep report
// shape: both stages present, a knee, and a single JSON document.
func TestSweepRun(t *testing.T) {
	ts := liveTarget(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-workers", "2", "-duration", "250ms",
		"-sweep", "200,400", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var swp SweepReport
	if err := json.Unmarshal(out.Bytes(), &swp); err != nil {
		t.Fatalf("sweep report is not one JSON document: %v\n%s", err, out.String())
	}
	if len(swp.Stages) != 2 || swp.Stages[0].OfferedRate != 200 || swp.Stages[1].OfferedRate != 400 {
		t.Fatalf("stages = %+v", swp.Stages)
	}
	if swp.KneeReason == "" || swp.MaxThroughput <= 0 {
		t.Errorf("sweep summary incomplete: %+v", swp)
	}
	// Text mode renders the curve and the knee line.
	out.Reset()
	err = run(context.Background(), []string{
		"-target", ts.URL, "-workers", "2", "-duration", "150ms", "-sweep", "100,200",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OFFERED", "ACHIEVED", "knee", "max rate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.String())
		}
	}
}
