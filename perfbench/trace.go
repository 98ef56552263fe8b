package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rwskit/internal/core"
	"rwskit/internal/serve"
	"rwskit/internal/source"
)

// The traced run splits one request and one swap into layers. It times
// only calls into the public functions of internal/core, internal/source
// and internal/serve, from this file; spans are kept in memory and
// written out when the run ends. The server-side numbers (CPU split, GC,
// in-situ handler time) come from a real rws-serve process driven at the
// workload's heavy rate with GODEBUG=gctrace=1.

// Span names.
const (
	spReq = iota
	spHandler
	spLookup
	spSwap
	spFetch
	spBuild
	spAdd
	numSpans
)

var spanNames = [numSpans]string{"req", "handler", "lookup", "swap", "source.Fetch", "serve.BuildSnapshot", "Store.AddSnapshot"}

// span is one timed call. Spans of one request or swap share root.
type span struct {
	name         int
	id, parent   int32
	root         int32
	start, end   int64 // ns since the tracer's base
	childCovered int64 // ns of this span covered by its children
}

// tracer records spans in memory. The loopback server records handler
// spans on its own goroutine, hence the lock.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name int, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	root := id
	if parent >= 0 {
		root = t.spans[parent].root
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, root: root, start: t.now()})
	return id
}

// end closes a span, charges its duration to its parent's children, and
// returns the duration in ms.
func (t *tracer) end(id int32) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = t.now()
	if s.parent >= 0 {
		t.spans[s.parent].childCovered += s.end - s.start
	}
	return float64(s.end-s.start) / 1e6
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"root":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			s.id, s.parent, s.root, spanNames[s.name], s.start, s.end, s.end-s.start-s.childCovered)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary is the median total and self time per span name, µs.
func (t *tracer) summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s %12s\n", "span", "count", "median_us", "self_us")
	for name := 0; name < numSpans; name++ {
		var tot, self []float64
		for _, s := range t.spans {
			if s.name == name {
				tot = append(tot, float64(s.end-s.start)/1e3)
				self = append(self, float64(s.end-s.start-s.childCovered)/1e3)
			}
		}
		if len(tot) > 0 {
			fmt.Fprintf(&b, "%-20s %8d %12.2f %12.2f\n", spanNames[name], len(tot), median(tot), median(self))
		}
	}
	return b.String()
}

// repeat runs f at least min times and until budget has passed, at most
// max times, and returns the median duration of one call in ms.
func repeat(min, max int, budget time.Duration, f func() error) (float64, error) {
	var ms []float64
	start := time.Now()
	for len(ms) < max && (len(ms) < min || time.Since(start) < budget) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// perCall times f over n calls, repeated until budget has passed (at
// least once), and returns ns per call.
func perCall(n int, budget time.Duration, f func(i int)) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < budget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// metricsBody is the part of /v1/metrics the traced run reads.
type metricsBody struct {
	DiffCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"diff_cache"`
	Endpoints []struct {
		Endpoint           string `json:"endpoint"`
		Requests           uint64 `json:"requests"`
		TotalLatencyMicros uint64 `json:"total_latency_micros"`
	} `json:"endpoints"`
}

// queryEndpoints are the endpoints the benchmark's queries reach.
var queryEndpoints = []string{"/v1/sameset", "/v1/set", "/v1/partition", "/v1/diff"}

// handlerTotals sums requests and handler time over the query endpoints.
func (m *metricsBody) handlerTotals() (reqs, micros uint64) {
	for _, e := range m.Endpoints {
		if slices.Contains(queryEndpoints, e.Endpoint) {
			reqs += e.Requests
			micros += e.TotalLatencyMicros
		}
	}
	return reqs, micros
}

func fetchMetrics(c *httpConn) (*metricsBody, error) {
	c.wbuf = append(c.wbuf[:0], "GET /v1/metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"...)
	var r response
	if err := c.roundTrip(&r, 10*time.Second); err != nil {
		return nil, fmt.Errorf("/v1/metrics: %w", err)
	}
	var m metricsBody
	if err := json.Unmarshal(r.body, &m); err != nil {
		return nil, fmt.Errorf("/v1/metrics: %w", err)
	}
	return &m, nil
}

// gcTrace is what the server's gctrace lines say about a span of time.
type gcTrace struct {
	cycles int
	cpuMs  float64 // GC CPU outside idle-time marking
}

// readGCTrace parses the gctrace lines of the server's standard error,
// skipping the first skip lines.
func readGCTrace(path string, skip int) (gcTrace, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return gcTrace{}, 0, err
	}
	var g gcTrace
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		n++
		if n <= skip {
			continue
		}
		g.cycles++
		// "..., A+B/C/D+E ms cpu, ...": STW sweep termination, assist,
		// background and idle marking, STW mark termination.
		_, rest, ok := strings.Cut(line, " ms clock, ")
		if !ok {
			continue
		}
		cpu, _, _ := strings.Cut(rest, " ms cpu")
		parts := strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' })
		for i, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err == nil && i != 3 {
				g.cpuMs += v
			}
		}
	}
	return g, n, nil
}

func runTraced(w *workload, o options, in *inputs, dir string) (*result, error) {
	traceDir, err := filepath.Abs(filepath.Join(o.workDir, "trace", fmt.Sprintf("%s-s%d", w.name, o.seed)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	var out strings.Builder

	// The real process under the heavy rate.
	cpuUs, attempted, failed, err := tracedChild(w, o, in, dir, m)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&out, "server at %.0f req/s: cpu %.2f µs/req (user %.2f, sys %.2f), in-situ handler mean %.2f µs\n",
		w.heavy, cpuUs, m["server.user_us_per_req"].Value, m["server.sys_us_per_req"].Value, m["server.handler_mean_us"].Value)

	// The layers, in process.
	tr := newTracer()
	lp, err := probeLayers(w, o, in, tr, m)
	if err != nil {
		return nil, err
	}

	// The layer ladder: shares of the server's CPU per request.
	lookup, handler := lp.weightedLookupUs, lp.weightedHandlerUs
	user, sys := m["server.user_us_per_req"].Value, m["server.sys_us_per_req"].Value
	insitu := m["server.handler_mean_us"].Value
	rows := []struct {
		name string
		us   float64
	}{
		{"lookup (Snapshot.SameSet/Set/Partition, in process)", lookup},
		{"handler minus lookup (encode and write, in process)", handler - lookup},
		{"server user CPU outside the handler (net/http, instrument, GC, swaps)", user - insitu},
		{"sys (the kernel)", sys},
	}
	sum := 0.0
	fmt.Fprintf(&out, "\nlayer ladder, %s, share of cpu_us_per_req = %.2f µs at %.0f req/s\n", w.name, cpuUs, w.heavy)
	for _, r := range rows {
		sum += r.us
		fmt.Fprintf(&out, "  %-72s %8.2f µs %6.1f%%\n", r.name, r.us, 100*r.us/cpuUs)
	}
	fmt.Fprintf(&out, "  %-72s %8.2f µs %6.1f%%\n", "sum", sum, 100*sum/cpuUs)
	fmt.Fprintf(&out, "  %-72s %8.2f µs %6.1f%%\n", "residual (in-situ handler mean minus in-process handler)", cpuUs-sum, 100*(cpuUs-sum)/cpuUs)
	fmt.Fprintf(&out, "\ntracing overhead: %.2f µs per loopback request (traced %.2f, untraced %.2f), %.1f ns per lookup (traced %.1f, untraced %.1f)\n",
		lp.reqTraced-lp.reqUntraced, lp.reqTraced, lp.reqUntraced, lp.lookupTraced-lp.lookupUntraced, lp.lookupTraced, lp.lookupUntraced)
	fmt.Fprintf(&out, "\nspans (self time = duration minus time covered by child spans):\n%s", tr.summary())

	spansPath := filepath.Join(traceDir, "spans.jsonl")
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	ladderPath := filepath.Join(traceDir, "ladder.txt")
	if err := os.WriteFile(ladderPath, []byte(out.String()), 0o644); err != nil {
		return nil, err
	}
	fmt.Print(out.String())
	fmt.Printf("spans: %s\nladder: %s\n", spansPath, ladderPath)
	return &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracedChild drives a real rws-serve at the heavy rate with gctrace on,
// records the process-level and generator metrics, and returns the
// server's CPU µs per request with the responses attempted and failed.
func tracedChild(w *workload, o options, in *inputs, dir string, m map[string]metric) (cpuUs float64, attempted, failed int, err error) {
	stopSpinner, err := startSpinner()
	if err != nil {
		return 0, 0, 0, err
	}
	defer stopSpinner()
	srv, _, err := boot(w, o, in, dir, childEnv("GODEBUG=gctrace=1"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.stop()
	g, err := newGenerator(in.u, in.chk, srv, connections, o.seed, newMix(w.weights))
	if err != nil {
		return 0, 0, 0, err
	}
	defer g.close()
	if w.swapEvery > 0 {
		g.churn = &churner{listPath: in.listPath, every: int64(w.swapEvery), pending: -1}
	}
	_, heavyDur, _ := stagePlan(w, o.seconds)
	if _, err := g.run("warmup", w.light, warmup, w.p99Window, o.seed*1000); err != nil {
		return 0, 0, 0, err
	}
	mc, err := dial(srv.port)
	if err != nil {
		return 0, 0, 0, err
	}
	defer mc.close()
	m0, err := fetchMetrics(mc)
	if err != nil {
		return 0, 0, 0, err
	}
	stderrPath := filepath.Join(dir, "serve.stderr")
	_, gcBefore, err := readGCTrace(stderrPath, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := g.run("heavy", w.heavy, heavyDur, w.p99Window, o.seed*1000+2)
	if err != nil {
		return 0, 0, 0, err
	}
	gc, _, err := readGCTrace(stderrPath, gcBefore)
	if err != nil {
		return 0, 0, 0, err
	}
	m1, err := fetchMetrics(mc)
	if err != nil {
		return 0, 0, 0, err
	}
	printStage(st, w.p99)
	r0, us0 := m0.handlerTotals()
	r1, us1 := m1.handlerTotals()
	done := float64(max(st.done, 1))
	cpuMs := float64(st.cpu.user+st.cpu.sys) / 1e6
	m["server.handler_mean_us"] = metric{float64(us1-us0) / float64(max(r1-r0, 1)), "us"}
	m["server.user_us_per_req"] = metric{float64(st.cpu.user) / 1e3 / done, "us"}
	m["server.sys_us_per_req"] = metric{float64(st.cpu.sys) / 1e3 / done, "us"}
	m["server.gc_cycles"] = metric{float64(gc.cycles), "count"}
	m["server.gc_cpu_share"] = metric{gc.cpuMs / max(cpuMs, 1e-9), "ratio"}
	m["gen.late_p99_us"] = metric{pct(st.late, 0.99), "us"}
	m["gen.cpu_share"] = metric{float64(st.busy) / float64(max(st.wall, 1)), "ratio"}
	m["box.steal_share"] = metric{st.steal, "ratio"}
	return st.cpuPerReq(), g.attempted, g.failed, nil
}

// layerProbe holds the in-process figures the ladder and the overhead
// report need.
type layerProbe struct {
	weightedLookupUs, weightedHandlerUs float64
	reqTraced, reqUntraced              float64 // µs per loopback request
	lookupTraced, lookupUntraced        float64 // ns per lookup
}

// probeLayers times each layer's public functions in this process.
func probeLayers(w *workload, o options, in *inputs, tr *tracer, m map[string]metric) (*layerProbe, error) {
	vs := in.chk.versions
	lp := &layerProbe{}
	data, err := os.ReadFile(vs[0].path)
	if err != nil {
		return nil, err
	}

	// core: parse and hash the served list.
	var list *core.List
	ms, err := repeat(3, 25, time.Second, func() (err error) {
		list, err = core.ParseJSON(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core.ParseJSON: %w", err)
	}
	m["core.parse_ms"] = metric{ms, "ms"}
	ms, _ = repeat(3, 25, time.Second, func() error { _ = list.Hash(); return nil })
	m["core.hash_ms"] = metric{ms, "ms"}

	// serve snapshot: live-heap growth of one build, against its estimate.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := serve.BuildSnapshot(list, serve.SnapshotOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve.BuildSnapshot: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	m["snapshot.heap_mb"] = metric{heap / (1 << 20), "MB"}
	m["snapshot.estimate_ratio"] = metric{float64(snap.BuildInfo().EstimatedBytes) / max(heap, 1), "ratio"}

	// The swap path, traced: rename a changed version over the watched
	// file, then Fetch, BuildSnapshot and AddSnapshot, as a watcher would.
	st := serve.NewStoreWith(2, serve.SnapshotOptions{})
	st.AddSnapshot(snap, core.Version{Source: "boot", AsOf: vs[0].asOf})
	snap = nil
	watched := filepath.Join(filepath.Dir(vs[0].path), "traced.json")
	if err := os.Link(vs[0].path, watched); err != nil {
		return nil, err
	}
	src := source.NewFileSource(watched)
	if _, _, err := src.Fetch(context.Background()); err != nil {
		return nil, fmt.Errorf("source.Fetch: %w", err)
	}
	var fetchMs, buildMs, addMs []float64
	for k := 0; k < 2 || (k < 10 && len(vs[0].ids) < 50_000); k++ {
		next := vs[1+k%(len(vs)-1)]
		if k%2 == 1 {
			next = vs[0]
		}
		tmp := watched + ".next"
		if err := os.Link(next.path, tmp); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, watched); err != nil {
			return nil, err
		}
		root := tr.begin(spSwap, -1)
		id := tr.begin(spFetch, root)
		l, meta, err := src.Fetch(context.Background())
		fetchMs = append(fetchMs, tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("source.Fetch of version %d: %w", next.idx, err)
		}
		id = tr.begin(spBuild, root)
		s, err := serve.BuildSnapshot(l, serve.SnapshotOptions{})
		buildMs = append(buildMs, tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("serve.BuildSnapshot: %w", err)
		}
		id = tr.begin(spAdd, root)
		st.AddSnapshot(s, meta.Version())
		addMs = append(addMs, tr.end(id))
		tr.end(root)
	}
	m["source.fetch_ms"] = metric{median(fetchMs), "ms"}
	m["snapshot.build_ms"] = metric{median(buildMs), "ms"}
	m["store.add_ms"] = metric{median(addMs), "ms"}

	// store: resolve retained versions by hash prefix and as-of time, and
	// a cold diff between them.
	infos := st.Versions()
	var specs []string
	for _, vi := range infos {
		specs = append(specs, vi.Version.Hash[:16], vi.Version.AsOf.Add(time.Minute).UTC().Format(time.RFC3339))
	}
	m["store.resolve_ns"] = metric{perCall(len(specs), 200*time.Millisecond, func(i int) { _, _, _ = st.Resolve(specs[i]) }), "ns"}
	a, _, err := st.ByHash(infos[0].Version.Hash)
	if err != nil {
		return nil, err
	}
	b, _, err := st.ByHash(infos[len(infos)-1].Version.Hash)
	if err != nil {
		return nil, err
	}
	cold := serve.NewStore(1) // holds neither, so every Diff computes
	ms, _ = repeat(3, 25, 500*time.Millisecond, func() error { _ = cold.Diff(a, b); return nil })
	m["store.diff_ms"] = metric{ms, "ms"}

	// lookups on the current snapshot, each call a lookup span.
	cur := st.Current()
	rng := newRand(o.seed)
	curIdx := in.chk.byHash[cur.Hash()]
	const n = 4096
	qs := make([]query, n)
	for i := range qs {
		in.u.fill(&qs[i], rng, kSameSet, vs, curIdx, curIdx, curIdx)
	}
	site := func(r siteRef) string { return in.u.sets[r.set].members[r.member] }
	sameset := func(i int) { _ = cur.SameSet(site(qs[i].a[0]), site(qs[i].b[0])) }
	set := func(i int) { _ = cur.Set(site(qs[i].a[0])) }
	partition := func(i int) { _, _ = cur.Partition(policies[i%len(policies)], site(qs[i].a[0]), site(qs[i].b[0])) }
	budget := 200 * time.Millisecond
	lookupNs := map[int]float64{
		kSameSet:   perCall(n, budget, sameset),
		kSet:       perCall(n, budget, set),
		kPartition: perCall(n, budget, partition),
	}
	m["snapshot.sameset_ns"] = metric{lookupNs[kSameSet], "ns"}
	m["snapshot.set_ns"] = metric{lookupNs[kSet], "ns"}
	m["snapshot.partition_ns"] = metric{lookupNs[kPartition], "ns"}
	lp.lookupUntraced = lookupNs[kSameSet]
	// One traced pass: a span per call.
	lp.lookupTraced = perCall(n, 0, func(i int) {
		id := tr.begin(spLookup, -1)
		sameset(i)
		tr.end(id)
	})
	lookupNs[kBatch] = batchPairs * lookupNs[kSameSet]
	lookupNs[kAsOf] = lookupNs[kSameSet] + m["store.resolve_ns"].Value

	// handlers: Server.ServeHTTP with a reused discard writer.
	srv := serve.NewFromStore(st)
	// newReq draws a request of kind k; versioned kinds pin to the
	// store's retained versions.
	newReq := func(k int) *http.Request {
		var q query
		in.u.fill(&q, rng, k, vs, curIdx, curIdx, curIdx)
		if k == kAsOf || k == kDiff {
			q.pin = in.chk.byHash[infos[rng.Intn(len(infos))].Version.Hash]
			q.pin2 = in.chk.byHash[infos[rng.Intn(len(infos))].Version.Hash]
			q.a[0], q.b[0] = in.u.pair(rng, vs[q.pin])
		}
		line := in.u.appendRequest(nil, &q, vs)
		return httptest.NewRequest(http.MethodGet, strings.Fields(string(line))[1], nil)
	}
	reqs := make([][]*http.Request, numKinds)
	for k := 0; k < numKinds; k++ {
		if w.weights[k] == 0 && k > kAsOf {
			continue
		}
		for i := 0; i < 512; i++ {
			reqs[k] = append(reqs[k], newReq(k))
		}
	}
	dw := &discardWriter{h: http.Header{}}
	handlerNs := map[int]float64{}
	for k, rs := range reqs {
		if len(rs) == 0 {
			continue
		}
		handlerNs[k] = perCall(len(rs), budget, func(i int) { dw.reset(); srv.ServeHTTP(dw, rs[i]) })
		if dw.status != http.StatusOK {
			return nil, fmt.Errorf("in-process %s request answered %d", kindNames[k], dw.status)
		}
	}
	for _, k := range []int{kSameSet, kSet, kPartition, kBatch, kAsOf} {
		m["handler."+kindNames[k]+"_ns"] = metric{handlerNs[k], "ns"}
	}
	// Allocations per request over the workload's mix.
	mx := newMix(w.weights)
	mixed := make([]*http.Request, 2048)
	for i := range mixed {
		k := mx.pick(rng)
		mixed[i] = reqs[k][rng.Intn(len(reqs[k]))]
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range mixed {
		dw.reset()
		srv.ServeHTTP(dw, r)
	}
	runtime.ReadMemStats(&after)
	m["handler.allocs_per_req"] = metric{float64(after.Mallocs-before.Mallocs) / float64(len(mixed)), "count"}
	m["handler.bytes_per_req"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / float64(len(mixed)), "B"}
	total := 0
	for k := 0; k < numKinds; k++ {
		total += w.weights[k]
		lp.weightedLookupUs += float64(w.weights[k]) * lookupNs[k] / 1e3
		lp.weightedHandlerUs += float64(w.weights[k]) * handlerNs[k] / 1e3
	}
	lp.weightedLookupUs /= float64(total)
	lp.weightedHandlerUs /= float64(total)

	// The diff cache's hit ratio over diff requests among retained
	// versions, from the in-process server's own /v1/metrics.
	for i := 0; i < 64; i++ {
		dw.reset()
		srv.ServeHTTP(dw, newReq(kDiff))
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var mb metricsBody
	if err := json.Unmarshal(rec.Body.Bytes(), &mb); err != nil {
		return nil, fmt.Errorf("in-process /v1/metrics: %w", err)
	}
	m["store.diff_hit_ratio"] = metric{float64(mb.DiffCache.Hits) / float64(max(mb.DiffCache.Hits+mb.DiffCache.Misses, 1)), "ratio"}

	// req -> handler spans: the same sameset queries behind a loopback
	// net/http server, traced and untraced.
	if err := loopback(srv, in, qs, tr, lp); err != nil {
		return nil, err
	}
	return lp, nil
}

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) reset() {
	clear(d.h)
	d.status = http.StatusOK
}
func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// tracedHandler wraps the server in the benchmark's own handler so each
// request's handler span nests under the client's req span.
type tracedHandler struct {
	next   http.Handler
	tr     *tracer
	parent *int32 // the req span in flight; -1 when untraced
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if *h.parent < 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.tr.begin(spHandler, *h.parent)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// loopback serves srv on a loopback port in this process and sends qs
// through it one at a time, first traced and then untraced.
func loopback(srv *serve.Server, in *inputs, qs []query, tr *tracer, lp *layerProbe) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	parent := int32(-1)
	hs := &http.Server{Handler: &tracedHandler{next: srv, tr: tr, parent: &parent}}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-done
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	c := &httpConn{rbuf: make([]byte, 0, 64<<10)}
	var r response
	send := func(q *query) error {
		c.wbuf = in.u.appendRequest(c.wbuf[:0], q, in.chk.versions)
		if _, err := conn.Write(c.wbuf); err != nil {
			return err
		}
		c.rbuf = c.rbuf[:0]
		for {
			n, err := conn.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
			if err != nil {
				return err
			}
			c.rbuf = c.rbuf[:len(c.rbuf)+n]
			if done, err := c.parse(&r); err != nil || done {
				return err
			}
		}
	}
	run := func(traced bool) (float64, error) {
		start := time.Now()
		for i := range qs {
			if traced {
				parent = tr.begin(spReq, -1)
			}
			err := send(&qs[i])
			if traced {
				tr.end(parent)
				parent = -1
			}
			if err != nil {
				return 0, fmt.Errorf("loopback request: %w", err)
			}
			if r.status != http.StatusOK {
				return 0, fmt.Errorf("loopback request answered %d", r.status)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(qs)), nil
	}
	if _, err := run(false); err != nil { // warm the connection and caches
		return err
	}
	if lp.reqTraced, err = run(true); err != nil {
		return err
	}
	lp.reqUntraced, err = run(false)
	return err
}
