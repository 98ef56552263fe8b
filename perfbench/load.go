package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// generator drives one server over a fixed set of connections from a
// single goroutine. It owns the versions written so far and the oracle
// that judges every response.
type generator struct {
	u     *universe
	chk   *checker
	srv   *server
	conns []*httpConn
	inq   []query // the query in flight on each connection
	rng   *rand.Rand
	mix   mix
	base  time.Time

	draw int // newest version written; unpinned queries ask about its sites
	live int // newest version seen answering

	// Totals over every checked response of the run.
	attempted, failed int
	failures          map[string]int

	// churn, when set, renames a new version over the served list at a
	// fixed cadence while a stage runs.
	churn *churner

	resp response

	// control marks a generator that drives the control server: every
	// answer must be controlBody.
	control bool
}

// liveWindow is how many versions behind the newest live one a pinned
// query may reach; the server is started with -retain above it.
const liveWindow = 5

func newGenerator(u *universe, chk *checker, srv *server, conns int, seed int64, m mix) (*generator, error) {
	g := &generator{u: u, chk: chk, srv: srv, rng: rand.New(rand.NewSource(seed)), mix: m, base: time.Now(), failures: map[string]int{}}
	for i := 0; i < conns; i++ {
		c, err := dial(srv.port)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial server: %w", err)
		}
		g.conns = append(g.conns, c)
	}
	g.inq = make([]query, conns)
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.close()
	}
	g.conns = nil
}

func (g *generator) now() int64 { return int64(time.Since(g.base)) }

func (g *generator) fail(reason string) {
	g.failed++
	g.failures[reason]++
}

// next fills q with a fresh query drawn from the mix.
func (g *generator) next(q *query) {
	lo := max(0, g.live-liveWindow)
	g.u.fill(q, g.rng, g.mix.pick(g.rng), g.chk.versions, g.draw, lo, g.live)
	q.live = g.live
}

// judge checks a completed response and accounts for it.
func (g *generator) judge(q *query, r *response) verdict {
	g.attempted++
	if g.control {
		if r.status != 200 || !bytes.Equal(r.body, controlBody) {
			g.fail(fmt.Sprintf("control: status %d body %.80q", r.status, r.body))
			return verdict{version: -1}
		}
		return verdict{ok: true, version: -1}
	}
	vd := g.chk.check(q, r)
	if !vd.ok {
		if r.status != 200 {
			g.fail(fmt.Sprintf("%s: status %d", kindNames[q.kind], r.status))
		} else {
			g.fail(kindNames[q.kind] + ": wrong answer")
		}
	}
	if vd.version > g.live {
		g.live = vd.version
	}
	return vd
}

// redial replaces a broken connection.
func (g *generator) redial(i int) error {
	g.conns[i].close()
	c, err := dial(g.srv.port)
	if err != nil {
		return fmt.Errorf("redial server: %w", err)
	}
	g.conns[i] = c
	return nil
}

// stage is the outcome of one open-loop stage at a fixed rate.
type stage struct {
	name    string
	rate    float64
	offered int       // arrivals scheduled in the stage
	done    int       // responses received
	failed  int       // errors, non-2xx and wrong answers
	lat     []int64   // due time to last response byte, ns, sorted
	p99w    float64   // windowed p99, µs
	p50s    []float64 // for a stage merged from windows, each window's p50, µs
	late    []int64   // send lateness of requests whose connection was idle at their due time, ns, sorted
	lagEnd  int64     // due-to-send lag of the last request sent, ns
	busy    int64     // generator time spent sending, reading and checking, ns
	wall    int64
	cpu     cpuTimes // server CPU used during the stage
	steal   float64
}

func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func (s *stage) p50us() float64 { return pct(s.lat, 0.50) }

// p99us is the stage's p99, as windowedP99 computes it.
func (s *stage) p99us() float64 { return s.p99w }

// windowedP99 is the median, over windows of size consecutive requests,
// of each window's p99; lat is in completion order. One long hypervisor
// stall then moves a single window, not the stage's figure. A size of
// 1000 leaves ten requests beyond each window's p99; a size of 0 pools
// the whole stage.
func windowedP99(lat []int64, size int) float64 {
	if size == 0 || len(lat) < size {
		s := slices.Clone(lat)
		slices.Sort(s)
		return pct(s, 0.99)
	}
	var p99s []float64
	w := make([]int64, size)
	for i := 0; i+size <= len(lat); i += size {
		copy(w, lat[i:i+size])
		slices.Sort(w)
		p99s = append(p99s, pct(w, 0.99))
	}
	return median(p99s)
}

// cpuPerReq is the server's CPU time per completed request, µs.
func (s *stage) cpuPerReq() float64 {
	return float64(s.cpu.user+s.cpu.sys) / 1e3 / float64(max(s.done, 1))
}

// meets reports whether the stage holds the SLO: p99 within limit, at
// least 99% of the offered load served, nothing failed, and no backlog
// left waiting to be sent.
func (s *stage) meets(limit time.Duration) bool {
	return s.failed == 0 && float64(s.done) >= 0.99*float64(s.offered) &&
		s.p99us() <= float64(limit.Microseconds()) && s.lagEnd <= int64(limit)
}

// drainTimeout bounds how long a stage waits for responses still in
// flight after its last send.
const drainTimeout = 5 * time.Second

// run drives an open-loop stage: Poisson arrivals at rate for dur, each
// sent on a free connection as soon as it is due. A request's latency is
// timed from its due time, so time spent waiting for a free connection
// counts against the server.
func (g *generator) run(name string, rate float64, dur time.Duration, p99Window int, seed int64) (*stage, error) {
	st := &stage{name: name, rate: rate}
	capHint := int(rate*dur.Seconds()*1.2) + 64
	st.lat = make([]int64, 0, capHint)
	st.late = make([]int64, 0, capHint)
	arrivals := rand.New(rand.NewSource(seed))
	gap := func() int64 { return int64(arrivals.ExpFloat64() / rate * 1e9) }

	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, err := g.srv.cpu()
	if err != nil {
		return nil, err
	}
	box0 := readBoxCPU()

	start := g.now()
	end := start + int64(dur)
	nextDue := start + gap()
	for _, c := range g.conns {
		c.idleAt = start
	}
	if g.churn != nil {
		g.churn.arm(start)
	}
	lastSend := int64(0)
	lastDue := int64(0)
	for {
		t := g.now()
		if g.churn != nil {
			if err := g.churn.tick(g, t); err != nil {
				return nil, err
			}
		}
		// Send every due request a free connection can take.
		for i, c := range g.conns {
			if nextDue >= end || nextDue > t {
				break
			}
			if c.busy {
				continue
			}
			q := &g.inq[i]
			g.next(q)
			q.due = nextDue
			c.wbuf = g.u.appendRequest(c.wbuf[:0], q, g.chk.versions)
			s0 := g.now()
			if err := c.send(); err != nil {
				g.attempted++
				g.fail("send: " + err.Error())
				st.failed++
				if err := g.redial(i); err != nil {
					return nil, err
				}
			}
			s1 := g.now()
			st.busy += s1 - s0
			if c.idleAt <= nextDue {
				st.late = append(st.late, s0-nextDue)
			}
			lastSend, lastDue = s0, nextDue
			st.offered++
			nextDue += gap()
		}
		// Collect responses.
		anyBusy := false
		for i, c := range g.conns {
			if !c.busy {
				continue
			}
			r0 := g.now()
			done, err := c.poll(&g.resp)
			if err != nil {
				g.attempted++
				g.fail("read: " + err.Error())
				st.failed++
				if err := g.redial(i); err != nil {
					return nil, err
				}
				continue
			}
			if !done {
				anyBusy = true
				continue
			}
			q := &g.inq[i]
			vd := g.judge(q, &g.resp)
			r1 := g.now()
			st.busy += r1 - r0
			c.idleAt = r1
			st.done++
			st.lat = append(st.lat, r1-q.due)
			if !vd.ok {
				st.failed++
			}
			if g.churn != nil && vd.ok && q.pin < 0 {
				g.churn.observe(vd.version)
			}
		}
		if nextDue >= end && !anyBusy {
			break
		}
		if t > end+int64(drainTimeout) {
			for i, c := range g.conns {
				if c.busy {
					g.attempted++
					g.fail("timeout")
					st.failed++
					if err := g.redial(i); err != nil {
						return nil, err
					}
				}
			}
			break
		}
	}
	// Arrivals that fell due but were never sent are offered load the
	// server did not take.
	for ; nextDue < end; nextDue += gap() {
		st.offered++
	}
	st.wall = g.now() - start
	st.lagEnd = lastSend - lastDue
	cpu1, err := g.srv.cpu()
	if err != nil {
		return nil, err
	}
	st.cpu = cpuTimes{user: cpu1.user - cpu0.user, sys: cpu1.sys - cpu0.sys}
	st.steal = stealShare(box0, readBoxCPU())
	st.p99w = windowedP99(st.lat, p99Window)
	slices.Sort(st.lat)
	slices.Sort(st.late)
	return st, nil
}

// A pair of windows in runPaired gives rws-serve rwsWindow and the
// control server controlWindow. The control server's p50 is steady
// within a window of this length; rws-serve's varies more from window to
// window (a GC cycle of its large heap, cache misses that depend on the
// host), so it gets the larger share of the time.
const (
	rwsWindow     = 1500 * time.Millisecond
	controlWindow = 500 * time.Millisecond
)

// runPaired runs the heavy rate for dur in pairs of windows, one on g
// (rws-serve) and one on ctl (the control server), each pair in turn led
// by the other server. It returns the windows of each server merged into
// one stage.
func runPaired(g, ctl *generator, w *workload, dur time.Duration, seed int64) (heavy, control *stage, err error) {
	var gs, cs []*stage
	for i := int64(0); i < int64(dur/(rwsWindow+controlWindow)); i++ {
		order := []*generator{g, ctl}
		if i%2 == 1 {
			order[0], order[1] = ctl, g
		}
		for _, x := range order {
			win := rwsWindow
			if x == ctl {
				win = controlWindow
			}
			st, err := x.run("heavy", w.heavy, win, w.p99Window, seed+1000*i)
			if err != nil {
				return nil, nil, err
			}
			if x == g {
				gs = append(gs, st)
			} else {
				cs = append(cs, st)
			}
		}
	}
	if len(gs) == 0 {
		return nil, nil, fmt.Errorf("heavy stage of %v is shorter than one pair of windows", dur)
	}
	return mergeStages("heavy", gs), mergeStages("control", cs), nil
}

// mergeStages sums stages run back to back at one rate into one. Its p99
// is the median of theirs, as windowedP99 takes the median of windows.
func mergeStages(name string, parts []*stage) *stage {
	m := &stage{name: name, rate: parts[0].rate}
	var p99s []float64
	for _, st := range parts {
		m.offered += st.offered
		m.done += st.done
		m.failed += st.failed
		m.lat = append(m.lat, st.lat...)
		m.late = append(m.late, st.late...)
		m.lagEnd = max(m.lagEnd, st.lagEnd)
		m.busy += st.busy
		m.wall += st.wall
		m.cpu.user += st.cpu.user
		m.cpu.sys += st.cpu.sys
		m.steal += st.steal * float64(st.wall)
		p99s = append(p99s, st.p99w)
		m.p50s = append(m.p50s, st.p50us())
	}
	m.steal /= float64(max(m.wall, 1))
	m.p99w = median(p99s)
	slices.Sort(m.lat)
	slices.Sort(m.late)
	return m
}

// probe sends one query on the first connection and waits for the
// answer, closed loop.
func (g *generator) probe(q *query, timeout time.Duration) (verdict, error) {
	c := g.conns[0]
	c.wbuf = g.u.appendRequest(c.wbuf[:0], q, g.chk.versions)
	if err := c.roundTrip(&g.resp, timeout); err != nil {
		return verdict{}, err
	}
	return g.judge(q, &g.resp), nil
}

// churner moves pre-written versions over the served list file, at a
// fixed cadence while a stage runs or one at a time after the load.
type churner struct {
	listPath string
	every    int64
	nextAt   int64
	pending  int   // version renamed but not yet seen answering; -1 if none
	renameAt int64 // when pending was renamed into place
	signal   bool  // send SIGHUP after each rename (no -poll)
}

// swapOffset is when a stage's first swap falls after its start; later
// swaps follow a cadence apart, so stages of equal length hold equally
// many swaps.
const swapOffset = int64(time.Second)

func (ch *churner) arm(start int64) {
	ch.nextAt = start + swapOffset
}

func (ch *churner) tick(g *generator, t int64) error {
	if ch.pending >= 0 || t < ch.nextAt || g.draw+1 >= len(g.chk.versions) {
		return nil
	}
	// Link, then rename the link over the list: the swap is atomic and
	// the version's own file stays for later use.
	v := g.chk.versions[g.draw+1]
	tmp := ch.listPath + ".next"
	if err := syscall.Link(v.path, tmp); err != nil {
		return fmt.Errorf("swap in version %d: %w", v.idx, err)
	}
	if err := syscall.Rename(tmp, ch.listPath); err != nil {
		return fmt.Errorf("swap in version %d: %w", v.idx, err)
	}
	ch.renameAt = g.now()
	if ch.signal {
		if err := syscall.Kill(g.srv.pid, syscall.SIGHUP); err != nil {
			return fmt.Errorf("signal server: %w", err)
		}
	}
	ch.pending = v.idx
	g.draw = v.idx
	ch.nextAt += ch.every
	return nil
}

// observe notes that version v answered.
func (ch *churner) observe(v int) {
	if ch.pending >= 0 && v >= ch.pending {
		ch.pending = -1
	}
}

// swapNow renames the next version into place and returns the swap time
// in ms: from the rename to the first probe answer carrying the new
// version's ETag. A swap still pending from the load stages completes
// first.
func (g *generator) swapNow(ch *churner, timeout time.Duration) (float64, error) {
	if ch.pending >= 0 {
		if err := g.await(ch, timeout); err != nil {
			return 0, err
		}
	}
	ch.nextAt = 0
	if err := ch.tick(g, g.now()); err != nil {
		return 0, err
	}
	if ch.pending < 0 {
		return 0, fmt.Errorf("no version left to swap in")
	}
	if err := g.await(ch, timeout); err != nil {
		return 0, err
	}
	return float64(g.now()-ch.renameAt) / 1e6, nil
}

// await probes until the pending version answers. For the first 20ms
// after the rename the probes run back to back, so a short swap meets a
// server that never idles between them; later probes are spaced a tenth
// of the time since the rename apart, at most 2ms, so a long swap is
// timed to within about a tenth without the probes loading the server
// they watch.
func (g *generator) await(ch *churner, timeout time.Duration) error {
	target := ch.pending
	deadline := time.Now().Add(timeout)
	var q query
	for next := g.now(); time.Now().Before(deadline); {
		for g.now() < next {
		}
		g.u.fill(&q, g.rng, kSameSet, g.chk.versions, g.draw, g.live, g.live)
		q.live = g.live
		vd, err := g.probe(&q, 10*time.Second)
		if err != nil {
			return err
		}
		if vd.ok {
			ch.observe(vd.version)
		}
		if ch.pending < 0 {
			return nil
		}
		if t := g.now(); t-ch.renameAt > int64(20*time.Millisecond) {
			next = t + min((t-ch.renameAt)/10, int64(2*time.Millisecond))
		}
	}
	return fmt.Errorf("version %d not served within %v of its rename", target, timeout)
}

// logf prints a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
