package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseText = `goos: linux
goarch: amd64
pkg: rwskit/internal/serve
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHandlerSameSet-4     	     100	      3500 ns/op	   18 B/op
BenchmarkHandlerSameSet-4     	     100	      3600 ns/op	   18 B/op
BenchmarkHandlerSameSet-4     	     100	      3400 ns/op	   18 B/op
BenchmarkStoreCurrent-4       	     100	         0.37 ns/op	    0 B/op
BenchmarkStoreDiffCached-4    	     100	       800 ns/op
BenchmarkVanished-4           	     100	       123 ns/op
PASS
`

// writeFile drops content into the test dir and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchMediansSamples(t *testing.T) {
	got, err := parseBench(strings.NewReader(baseText))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.samples["BenchmarkHandlerSameSet"]); n != 3 {
		t.Errorf("HandlerSameSet samples = %d, want 3", n)
	}
	if got.cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu header = %q", got.cpu)
	}
	if m := median(got.samples["BenchmarkHandlerSameSet"]); m != 3500 {
		t.Errorf("median = %g, want 3500", m)
	}
	if m := median(got.samples["BenchmarkStoreCurrent"]); m != 0.37 {
		t.Errorf("sub-ns benchmark parsed as %g", m)
	}
	if _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("benchmark-free input should error")
	}
	// Even sample counts take the mean of the middle pair.
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	if m := minOf(got.samples["BenchmarkHandlerSameSet"]); m != 3400 {
		t.Errorf("min = %g, want 3400", m)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := writeFile(t, "base.txt", baseText)
	cur := writeFile(t, "cur.txt", `
BenchmarkHandlerSameSet-8     	     100	      4000 ns/op
BenchmarkStoreCurrent-8       	     100	         0.40 ns/op
BenchmarkStoreDiffCached-8    	     100	       900 ns/op
BenchmarkBrandNew-8           	     100	        55 ns/op
`)
	var sb strings.Builder
	// min 4000 / min 3400 ≈ 1.18 < 1.25: within threshold despite the
	// different GOMAXPROCS suffix; new benchmarks and ungated
	// disappearances are informational.
	if err := run([]string{"-baseline", base, "-current", cur,
		"-match", "HandlerSameSet|StoreCurrent|StoreDiffCached"}, &sb); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"BenchmarkBrandNew", "new", "BenchmarkVanished", "missing"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestGateFailsOnVanishedGatedBenchmark: a gated benchmark that
// disappears from the current run must fail the build — deleting or
// renaming a hot-path benchmark must not silently disarm its gate.
func TestGateFailsOnVanishedGatedBenchmark(t *testing.T) {
	base := writeFile(t, "base.txt", baseText)
	cur := writeFile(t, "cur.txt", `
BenchmarkHandlerSameSet-4     	     100	      3500 ns/op
BenchmarkStoreCurrent-4       	     100	         0.40 ns/op
BenchmarkStoreDiffCached-4    	     100	       800 ns/op
`)
	var sb strings.Builder
	err := run([]string{"-baseline", base, "-current", cur}, &sb)
	if err == nil {
		t.Fatalf("vanished gated BenchmarkVanished should fail the build\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("table does not flag the vanished benchmark:\n%s", sb.String())
	}
}

// TestGateDemotesOnForeignCPU: a baseline recorded on different
// hardware turns the gate into a report — hardware deltas must not read
// as code regressions — unless -ignore-cpu insists.
func TestGateDemotesOnForeignCPU(t *testing.T) {
	base := writeFile(t, "base.txt", baseText)
	cur := writeFile(t, "cur.txt", `cpu: AMD EPYC 7763 64-Core Processor
BenchmarkHandlerSameSet-4     	     100	      9000 ns/op
BenchmarkStoreCurrent-4       	     100	         0.40 ns/op
BenchmarkStoreDiffCached-4    	     100	       800 ns/op
BenchmarkVanished-4           	     100	       123 ns/op
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur}, &sb); err != nil {
		t.Fatalf("foreign-cpu run should demote, not fail: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "demoted to informational") {
		t.Errorf("demotion not reported:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-baseline", base, "-current", cur, "-ignore-cpu"}, &sb); err == nil {
		t.Errorf("-ignore-cpu should restore the failing gate\n%s", sb.String())
	}

	// A vanished gated benchmark is a structural failure, not a timing
	// one: it must fail even on foreign hardware, or a rename disarms
	// the gate on every non-reference machine.
	curVanished := writeFile(t, "cur-vanished.txt", `cpu: AMD EPYC 7763 64-Core Processor
BenchmarkHandlerSameSet-4     	     100	      3500 ns/op
BenchmarkStoreCurrent-4       	     100	         0.40 ns/op
BenchmarkStoreDiffCached-4    	     100	       800 ns/op
`)
	sb.Reset()
	err := run([]string{"-baseline", base, "-current", curVanished}, &sb)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("vanished gated benchmark on foreign cpu: err = %v, want a missing failure\n%s", err, sb.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := writeFile(t, "base.txt", baseText)
	cur := writeFile(t, "cur.txt", `
BenchmarkHandlerSameSet-4     	     100	      9000 ns/op
BenchmarkStoreCurrent-4       	     100	         0.40 ns/op
BenchmarkStoreDiffCached-4    	     100	       810 ns/op
BenchmarkVanished-4           	     100	       123 ns/op
`)
	var sb strings.Builder
	err := run([]string{"-baseline", base, "-current", cur}, &sb)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("9000/3400 should fail the gate, got %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("table does not flag the regression:\n%s", sb.String())
	}

	// The same regression outside -match cannot fail the build.
	sb.Reset()
	if err := run([]string{"-baseline", base, "-current", cur, "-match", "StoreDiff"}, &sb); err != nil {
		t.Errorf("ungated regression failed the build: %v", err)
	}
}

// TestGateSkipsBelowTimerFloor: a sub-nanosecond baseline (an atomic
// load at -benchtime=100x) is below timer resolution and must never
// gate, even when the ratio explodes.
func TestGateSkipsBelowTimerFloor(t *testing.T) {
	base := writeFile(t, "base.txt", baseText)
	cur := writeFile(t, "cur.txt", `
BenchmarkHandlerSameSet-4     	     100	      3500 ns/op
BenchmarkStoreCurrent-4       	     100	        40 ns/op
BenchmarkStoreDiffCached-4    	     100	       800 ns/op
BenchmarkVanished-4           	     100	       123 ns/op
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur}, &sb); err != nil {
		t.Fatalf("sub-floor benchmark failed the gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "below 50ns floor") {
		t.Errorf("floor skip not reported:\n%s", sb.String())
	}
}

func TestWriteJSONAndBaselineBootstrap(t *testing.T) {
	cur := writeFile(t, "cur.txt", baseText)
	jsonPath := filepath.Join(t.TempDir(), "BENCH_5.json")
	var sb strings.Builder
	// No -baseline: the bootstrap path reports and still writes the JSON
	// artifact.
	if err := run([]string{"-current", cur, "-write-json", jsonPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no baseline") {
		t.Errorf("bootstrap message missing:\n%s", sb.String())
	}
	body, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"BenchmarkHandlerSameSet"`, `"min_ns_op": 3400`, `"median_ns_op": 3500`, `"samples_ns_op"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("JSON artifact missing %q:\n%s", want, body)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                                     // -current required
		{"-current", "x", "extra"},             // positional args rejected
		{"-current", "x", "-threshold", "0.9"}, // threshold must exceed 1
		{"-current", "x", "-match", "("},       // bad regexp
		{"-current", "x", "-stat", "mean"},     // unknown statistic
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) should fail", args)
		}
	}
}

// allocText is a -benchmem run: two clean zero-alloc benchmarks, one
// allocating one, and one without the allocs/op column at all.
const allocText = `goos: linux
pkg: rwskit/internal/serve
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHandlerSameSetZeroAlloc-2  	 1425738	       836.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkHandlerSameSetZeroAlloc-2  	 1425738	       839.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkHandlerStatsZeroAlloc-2    	 3065910	       391.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkHandlerSameSet-2           	  600000	      1998.0 ns/op	    1008 B/op	       8 allocs/op
BenchmarkStoreDiffCached-2          	  100000	       800.0 ns/op
PASS
`

func TestAssertZeroAlloc(t *testing.T) {
	cur := writeFile(t, "cur.txt", allocText)
	// Clean benchmarks pass and are reported.
	var sb strings.Builder
	if err := run([]string{"-current", cur, "-assert-zero-alloc", "ZeroAlloc$"}, &sb); err != nil {
		t.Fatalf("clean assertion failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "hold 0 allocs/op") {
		t.Errorf("assertion not reported:\n%s", sb.String())
	}
	// An allocating benchmark in the asserted set fails and is named.
	err := run([]string{"-current", cur, "-assert-zero-alloc", "BenchmarkHandler"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkHandlerSameSet: 8 allocs/op") {
		t.Errorf("allocating benchmark not caught: %v", err)
	}
	// No matching benchmark: the assertion must fail, not pass vacuously.
	if err := run([]string{"-current", cur, "-assert-zero-alloc", "NoSuchBenchmark"}, &sb); err == nil {
		t.Error("vacuous match should fail")
	}
	// Matching benchmarks without an allocs/op column (no -benchmem):
	// also a failure, the data the assertion needs is absent.
	if err := run([]string{"-current", cur, "-assert-zero-alloc", "StoreDiffCached"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "-benchmem") {
		t.Errorf("column-free assertion: err = %v, want a -benchmem hint", err)
	}
	// Bad regexp is a flag error.
	if _, err := parseFlags([]string{"-current", "x", "-assert-zero-alloc", "("}); err == nil {
		t.Error("bad -assert-zero-alloc regexp should fail")
	}
	// The assertion composes with a baseline comparison and runs first.
	base := writeFile(t, "base.txt", allocText)
	if err := run([]string{"-current", cur, "-baseline", base, "-assert-zero-alloc", "ZeroAlloc$"}, &sb); err != nil {
		t.Fatalf("assertion + gate: %v\n%s", err, sb.String())
	}
}
