// Command perfbench is rwskit's benchmark: it boots a real rws-serve
// process pinned to CPU 0, drives it open loop from this process pinned
// to CPU 1 over two keep-alive connections, checks every answer against
// an oracle built from the lists it generated, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (perfbench/run.sh builds both binaries
// and pins this one to CPU 1):
//
//	bash perfbench/run.sh --workload embedded-point --seed 1 --seconds 24 --trace 0
//
// With --trace 0 a run reports the end-to-end metrics: set-up time, RSS
// and p50_ratio.heavy, the median latency of rws-serve at the workload's
// heavy rate divided by that of a control server, a minimal net/http
// server this binary runs (-control) on CPU 0 beside rws-serve. The heavy
// stage alternates short windows between the two servers, so drift
// in what the shared host gives CPU 0, which moved rws-serve's own p50 by
// a fifth between runs, cancels in the ratio. The absolute p50s are
// printed beside it, as are server CPU per request, the highest ladder
// rate that meets the workload's p99 limit (slo_rps), latency at the
// light rate, p99s and swap times: on a shared two-CPU VM their
// run-to-run spread is wider than any bound worth gating on. With
// --trace 1 a run reports the per-layer metrics instead: each layer's
// public functions timed in process, the server's own counters under
// load, and the layer-ladder table that splits CPU per request. Spans and
// the table are written under .bench_build/trace/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	serveBin    string
	workDir     string
	injectWrong int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: embedded-point, amplified-1e5-point or swap-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	flag.StringVar(&o.serveBin, "serve-bin", "", "rws-serve binary")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for run files and traces")
	flag.IntVar(&o.injectWrong, "inject-wrong", -1, "flip the oracle's expectation for the n-th checked response (self-test: the run must fail)")
	spin := flag.Bool("spin", false, "spin forever (the idle-priority CPU 0 keeper the benchmark starts)")
	control := flag.Bool("control", false, "serve as the control server the benchmark starts, on -addr")
	addr := flag.String("addr", "", "with -control, the loopback address to listen on")
	flag.Parse()
	if *spin {
		for {
		}
	}
	if *control {
		fmt.Fprintln(os.Stderr, "perfbench: control server:", serveControl(*addr))
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.serveBin == "" {
		return nil, errors.New("want --seconds >= 1, --trace 0 or 1, and -serve-bin")
	}
	if err := selfTestOracle(); err != nil {
		return nil, err
	}
	box := describeBox()
	fmt.Printf("box: %s\n", box)
	dir, err := filepath.Abs(filepath.Join(o.workDir, "runs", fmt.Sprintf("%s-s%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	in, err := buildInputs(w, o.seed, dir)
	if err != nil {
		return nil, err
	}
	in.chk.wrong = o.injectWrong
	logf("%s: inputs ready in %v (%d sets in the universe, %d versions)", w.name, time.Since(t0).Round(time.Millisecond), len(in.u.sets), len(in.chk.versions))
	if o.trace == 1 {
		return runTraced(w, o, in, dir)
	}
	return runEndToEnd(w, o, in, dir)
}

// serveArgs is the rws-serve command line after -addr.
func serveArgs(w *workload, in *inputs) []string {
	return append([]string{"-list", in.listPath}, w.serveArgs...)
}

// bootTimeout bounds one server set-up.
const bootTimeout = 120 * time.Second

// boot starts a server and spins until it answers a probe correctly. The
// set-up time runs from process start to that first correct answer.
func boot(w *workload, o options, in *inputs, dir string, env []string) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(o.serveBin, serveArgs(w, in), filepath.Join(dir, "serve.stderr"), env)
	if err != nil {
		return nil, 0, err
	}
	var c *httpConn
	for {
		if c, err = dial(srv.port); err == nil {
			break
		}
		if !srv.alive() || time.Since(start) > bootTimeout {
			srv.kill()
			return nil, 0, fmt.Errorf("rws-serve did not start listening: %v; stderr: %s", err, tail(filepath.Join(dir, "serve.stderr")))
		}
		for t := time.Now(); time.Since(t) < 100*time.Microsecond; {
		}
	}
	defer c.close()
	var q query
	var resp response
	rng := newRand(o.seed)
	for {
		in.u.fill(&q, rng, kSameSet, in.chk.versions, 0, 0, 0)
		c.wbuf = in.u.appendRequest(c.wbuf[:0], &q, in.chk.versions)
		if err := c.roundTrip(&resp, bootTimeout); err != nil {
			srv.kill()
			return nil, 0, fmt.Errorf("boot probe: %w", err)
		}
		if in.chk.check(&q, &resp).ok {
			return srv, time.Since(start), nil
		}
		if time.Since(start) > bootTimeout {
			srv.kill()
			return nil, 0, fmt.Errorf("no correct answer within %v of start; last status %d body %.200q", bootTimeout, resp.status, resp.body)
		}
	}
}

// bootMedian sets the server up w.boots times and keeps the last one
// running; it returns the median set-up time in seconds.
func bootMedian(w *workload, o options, in *inputs, dir string, env []string) (*server, float64, error) {
	var times []float64
	for i := 0; i < w.boots; i++ {
		srv, d, err := boot(w, o, in, dir, env)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == w.boots-1 {
			logf("%s: set-up times %v", w.name, fmtFloats(times, "%.4fs"))
			return srv, median(times), nil
		}
		srv.kill()
	}
	return nil, 0, errors.New("no boots configured")
}

// stagePlan is the length of each stage for a run of the given seconds:
// a tenth for the light rate and two thirds for the heavy rate, shared
// between rws-serve and the control server (see runPaired); the ladder
// walk's rungs come on top.
func stagePlan(w *workload, seconds int) (light, heavy, rung time.Duration) {
	s := time.Duration(seconds) * time.Second
	rung = w.rung
	if rung == 0 {
		rung = s / 30
	}
	return s / 10, 2 * s / 3, rung
}

// warmup is an unmeasured stage that lets caches fill and lazy set-up
// finish before timing.
const warmup = time.Second

// connections is the number of client connections to each server: nproc
// of the two-CPU box the benchmark is built for. Only one server's
// connections carry requests at a time.
const connections = 2

// lateBound is the generator's own send lateness, p99, above which a run
// is invalid: the generator, not the server, would be setting the times.
const lateBound = time.Millisecond

func runEndToEnd(w *workload, o options, in *inputs, dir string) (*result, error) {
	stopSpinner, err := startSpinner()
	if err != nil {
		return nil, err
	}
	defer stopSpinner()
	box0 := readBoxCPU()
	srv, setup, err := bootMedian(w, o, in, dir, childEnv())
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	g, err := newGenerator(in.u, in.chk, srv, connections, o.seed, newMix(w.weights))
	if err != nil {
		return nil, err
	}
	defer g.close()
	ch := &churner{listPath: in.listPath, every: int64(w.swapEvery), pending: -1, signal: w.swapEvery == 0}
	if w.swapEvery > 0 {
		g.churn = ch
	}
	lightDur, heavyDur, rungDur := stagePlan(w, o.seconds)
	seed := o.seed * 1000
	if _, err := g.run("warmup", w.light, warmup, w.p99Window, seed); err != nil {
		return nil, err
	}
	light, err := g.run("light", w.light, lightDur, w.p99Window, seed+1)
	if err != nil {
		return nil, err
	}
	ctl, err := startControl(dir)
	if err != nil {
		return nil, err
	}
	defer ctl.stop()
	gc, err := newGenerator(in.u, in.chk, ctl, connections, o.seed, newMix(w.weights))
	if err != nil {
		return nil, err
	}
	defer gc.close()
	gc.control = true
	if _, err := gc.run("warmup", w.light, warmup, w.p99Window, seed); err != nil {
		return nil, err
	}
	heavy, ctlHeavy, err := runPaired(g, gc, w, heavyDur, seed+2)
	if err != nil {
		return nil, err
	}
	ratio := heavy.p50us() / ctlHeavy.p50us()
	// RSS after the fixed stages, before the ladder walk, whose length
	// depends on the code under test.
	rss, err := srv.rssMB()
	if err != nil {
		return nil, err
	}
	rungs, err := walkLadder(g, w, rungDur, seed+3)
	if err != nil {
		return nil, err
	}
	stages := append([]*stage{light, heavy}, rungs...)
	var swaps []float64
	g.churn = nil
	for i := 0; i < w.endSwaps; i++ {
		ms, err := g.swapNow(ch, bootTimeout)
		if err != nil {
			return nil, err
		}
		swaps = append(swaps, ms)
	}
	if len(swaps) == 0 {
		return nil, errors.New("no swap completed")
	}
	for _, st := range stages {
		printStage(st, w.p99)
	}
	printStage(ctlHeavy, w.p99)
	fmt.Printf("heavy windows, rws-serve p50 %s µs\nheavy windows, control p50 %s µs\n", fmtFloats(heavy.p50s, "%.1f"), fmtFloats(ctlHeavy.p50s, "%.1f"))
	fmt.Printf("p50_us.heavy %.2f, control %.2f over %d window pairs; p50_ratio.heavy %.4f\n", heavy.p50us(), ctlHeavy.p50us(), len(heavy.p50s), ratio)
	late := mergeSorted(append(stages, ctlHeavy), func(s *stage) []int64 { return s.late })
	lateP99 := pct(late, 0.99)
	slo := sloRate(w, stages)
	fmt.Printf("swaps: n=%d median %.1f ms %s\n", len(swaps), median(swaps), fmtFloats(swaps, "%.1f"))
	fmt.Printf("cpu_us_per_req %.2f at %.0f/s; slo_rps %.0f (p99 limit %v); generator lateness p99 %.1f µs over %d idle sends\n", heavy.cpuPerReq(), w.heavy, slo, w.p99, lateP99, len(late))
	attempted, failed := g.attempted+gc.attempted, g.failed+gc.failed
	fmt.Printf("attempted %d failed %d fail_ratio %.6f box.steal_share %.4f\n", attempted, failed, float64(failed)/float64(max(attempted, 1)), stealShare(box0, readBoxCPU()))
	for reason, n := range g.failures {
		fmt.Printf("  failure %q x%d\n", reason, n)
	}
	for reason, n := range gc.failures {
		fmt.Printf("  control failure %q x%d\n", reason, n)
	}
	if lateP99 > float64(lateBound.Microseconds()) {
		return nil, fmt.Errorf("invalid run: generator send lateness p99 %.1f µs exceeds %v", lateP99, lateBound)
	}
	return &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {setup, "s"},
			"rss_mb":          {rss, "MB"},
			"p50_ratio.heavy": {ratio, "ratio"},
		},
	}, nil
}

// ladderStride is the coarse step of the ladder walk, in rungs.
const ladderStride = 4

// walkLadder climbs the workload's ladder every ladderStride-th rung and
// stops once two coarse rungs in a row miss the SLO, then climbs the
// rungs between the highest coarse pass and the coarse rung above it up
// to the first miss. A rung that misses runs once more and passes if
// either run does: a transient miss (a GC cycle, a hypervisor stall) must
// not decide the result, while a rung past the knee misses both times.
func walkLadder(g *generator, w *workload, dur time.Duration, seed int64) ([]*stage, error) {
	var out []*stage
	rung := func(i int) (bool, error) {
		for try := int64(0); try < 2; try++ {
			st, err := g.run(fmt.Sprintf("rung%d", i+1), w.ladder[i], dur, w.p99Window, seed+int64(i)+1000*try)
			if err != nil {
				return false, err
			}
			out = append(out, st)
			if st.meets(w.p99) {
				return true, nil
			}
		}
		return false, nil
	}
	pass, misses := -1, 0
	for i := ladderStride - 1; i < len(w.ladder) && misses < 2; i += ladderStride {
		ok, err := rung(i)
		if err != nil {
			return nil, err
		}
		if ok {
			pass, misses = i, 0
		} else {
			misses++
		}
	}
	for i := pass + 1; i < min(pass+ladderStride, len(w.ladder)); i++ {
		ok, err := rung(i)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return out, nil
}

// sloRate is the highest rate on the workload's ladder that meets the
// SLO. Between the highest passing rung and the first failing one it
// interpolates where p99 crosses the limit, so the figure moves smoothly
// instead of jumping a whole rung; a failing rung whose failure is not
// latency (throughput, backlog, errors) contributes no interpolation.
func sloRate(w *workload, stages []*stage) float64 {
	limit := float64(w.p99.Microseconds())
	var pass, fail *stage
	for _, st := range stages {
		if st.meets(w.p99) && (pass == nil || st.rate > pass.rate) {
			pass = st
		}
	}
	for _, st := range stages {
		if !st.meets(w.p99) && (pass == nil || st.rate > pass.rate) && (fail == nil || st.rate < fail.rate) {
			fail = st
		}
	}
	rate, p99 := 0.0, 0.0
	if pass != nil {
		rate, p99 = pass.rate, pass.p99us()
	}
	if fail == nil {
		return rate
	}
	latencyOnly := fail.failed == 0 && float64(fail.done) >= 0.99*float64(fail.offered) && fail.lagEnd <= int64(w.p99)
	if !latencyOnly || fail.p99us() <= p99 {
		return rate
	}
	return rate + (fail.rate-rate)*(limit-p99)/(fail.p99us()-p99)
}

func printStage(st *stage, limit time.Duration) {
	fmt.Printf("stage %-6s rate %6.0f/s offered %6d done %6d failed %d p50 %8.1f p90 %8.1f p99 %9.1f (pooled %9.1f) p99.9 %9.1f max %9.1f µs (n=%d) cpu %.2f µs/req (user %.2f sys %.2f) gen busy %.2f steal %.3f lag_end %.1f µs slo=%v\n",
		st.name, st.rate, st.offered, st.done, st.failed, st.p50us(), pct(st.lat, 0.9), st.p99us(), pct(st.lat, 0.99), pct(st.lat, 0.999), pct(st.lat, 1), len(st.lat),
		st.cpuPerReq(), float64(st.cpu.user)/1e3/float64(max(st.done, 1)), float64(st.cpu.sys)/1e3/float64(max(st.done, 1)),
		float64(st.busy)/float64(max(st.wall, 1)), st.steal, float64(st.lagEnd)/1e3, st.meets(limit))
}

func mergeSorted(stages []*stage, f func(*stage) []int64) []int64 {
	var all []int64
	for _, st := range stages {
		all = append(all, f(st)...)
	}
	slices.Sort(all)
	return all
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fmtFloats(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// tail returns the end of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path) // best effort: only decorates an error
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// describeBox names the machine a run was measured on.
func describeBox() string {
	model := "unknown"
	ncpu := 0
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok {
				switch strings.TrimSpace(k) {
				case "model name":
					model = strings.TrimSpace(v)
				case "processor":
					ncpu++
				}
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cpu %q nproc %d go %s kernel %s", model, ncpu, runtime.Version(), kernel)
}
