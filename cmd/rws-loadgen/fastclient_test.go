package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rwskit/internal/dataset"
	"rwskit/internal/serve"
)

// fastTestServer exercises every framing the client must parse: a
// small Content-Length body, a body large enough that net/http switches
// to chunked encoding, an error status, and a Connection: close reply.
func fastTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/small", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		big := bytes.Repeat([]byte("x"), 32<<10)
		w.Write(big) // > the 2KB sniff buffer: net/http streams it chunked
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	mux.HandleFunc("/goaway", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte("bye"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// newTestClient returns a client for ts, resolved the way -target is.
func newTestClient(t *testing.T, ts *httptest.Server, timeout time.Duration) *fastClient {
	t.Helper()
	specs, err := parseTargets(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	c := &fastClient{addr: specs[0].addr, host: specs[0].host, timeout: timeout}
	t.Cleanup(c.close)
	return c
}

func TestFastClient(t *testing.T) {
	ts := fastTestServer(t)
	c := newTestClient(t, ts, 2*time.Second)
	// Interleave framings on one connection: the client must leave the
	// stream positioned at the next response every time.
	for i := 0; i < 3; i++ {
		for _, q := range []struct {
			path   string
			status int
		}{
			{"/small", 200}, {"/big", 200}, {"/missing", 404}, {"/small", 200},
		} {
			status, err := c.get(q.path)
			if err != nil {
				t.Fatalf("round %d %s: %v", i, q.path, err)
			}
			if status != q.status {
				t.Fatalf("round %d %s: status %d, want %d", i, q.path, status, q.status)
			}
		}
	}
	// A Connection: close response drops the socket; the next get must
	// transparently redial.
	if status, err := c.get("/goaway"); err != nil || status != 200 {
		t.Fatalf("/goaway: %d, %v", status, err)
	}
	if c.conn != nil {
		t.Fatal("connection not dropped after Connection: close")
	}
	if status, err := c.get("/small"); err != nil || status != 200 {
		t.Fatalf("redial after close: %d, %v", status, err)
	}
}

// TestFastClientTimeoutNotRetried: a request that times out on a reused
// connection is reported, not resent on a fresh one — the server must
// see it exactly once.
func TestFastClientTimeoutNotRetried(t *testing.T) {
	var stalled atomic.Int64
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("/stall", func(w http.ResponseWriter, r *http.Request) {
		stalled.Add(1)
		<-release
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblock before Close waits
	c := newTestClient(t, ts, 200*time.Millisecond)
	if status, err := c.get("/ok"); err != nil || status != 200 {
		t.Fatalf("/ok: %d, %v", status, err)
	}
	_, err := c.get("/stall") // on the reused connection
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("/stall: err = %v, want a timeout", err)
	}
	if n := stalled.Load(); n != 1 {
		t.Errorf("server saw the stalled request %d times, want 1", n)
	}
}

// readResponseCases are canned server replies. want lists the statuses
// readResponse must return in order, leaving the stream at the next
// reply each time; bad means the read after those must fail.
var readResponseCases = []struct {
	name string
	raw  string
	want []int
	bad  bool
}{
	{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello" +
		"HTTP/1.1 404 Not Found\r\ncontent-length:  3 \r\n\r\nnop", []int{200, 404}, false},
	{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5;ext=1\r\nhello\r\nA\r\n0123456789\r\n0\r\nTrailer: x\r\n\r\n" +
		"HTTP/1.1 201 Created\r\nContent-Length: 0\r\n\r\n", []int{200, 201}, false},
	{"no-body statuses", "HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n" +
		"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nx", []int{204, 304, 200}, false},
	{"unframed body to close", "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nrest of stream", []int{200}, false},
	{"empty content-length", "HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\nhello", nil, true},
	{"content-length over int64", "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\nx", nil, true},
	// 2^64+1: digit-by-digit int arithmetic wraps it to 1.
	{"content-length wrapping to 1", "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551617\r\n\r\nx", nil, true},
	{"content-length not digits", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", nil, true},
	{"bad chunk size", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", nil, true},
	{"short body", "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhi", nil, true},
	{"status without space", "HTTP/1.1x200 OK\r\n\r\n", nil, true},
	{"not http/1", "HTTP/2 200 OK\r\n\r\n", nil, true},
	{"status not digits", "HTTP/1.1 2x0 OK\r\n\r\n", nil, true},
}

func TestReadResponse(t *testing.T) {
	for _, tc := range readResponseCases {
		c := &fastClient{br: bufio.NewReader(strings.NewReader(tc.raw))}
		for i, want := range tc.want {
			if got, err := c.readResponse(); err != nil || got != want {
				t.Errorf("%s: reply %d = %d, %v; want %d", tc.name, i, got, err, want)
			}
		}
		if status, err := c.readResponse(); tc.bad && err == nil {
			t.Errorf("%s: read status %d, want an error", tc.name, status)
		}
	}
}

// FuzzFastClientResponse feeds arbitrary bytes to the response parser:
// it must never panic, and wherever net/http also accepts the reply,
// the two must agree on the status.
func FuzzFastClientResponse(f *testing.F) {
	for _, tc := range readResponseCases {
		f.Add([]byte(tc.raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fastClient{br: bufio.NewReader(bytes.NewReader(data))}
		status, err := c.readResponse()
		if err != nil {
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			return
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("status %d, net/http reads %d from %q", status, resp.StatusCode, data)
		}
	})
}

func TestParseHex(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"a", 10, true}, {"FF", 255, true}, {"1f4", 500, true},
		{"", 0, false}, {"g1", 0, false}, {"12345678901234567", 0, false},
	} {
		got, err := parseHex([]byte(tc.in))
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseHex(%q) = %d, %v", tc.in, got, err)
		}
	}
}

// connCountingTarget is liveTarget with a count of the connections the
// server accepted.
func connCountingTarget(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(serve.New(list))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

// runLoadJSON runs the load generator with args against ts and decodes
// its JSON report.
func runLoadJSON(t *testing.T, args ...string) Report {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), append(args, "-json"), &out); err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOpenLoopFast: the built-in client carries an open-loop run with
// 100-pair chunked batch responses on one kept-alive connection per
// worker.
func TestOpenLoopFast(t *testing.T) {
	ts, conns := connCountingTarget(t)
	rep := runLoadJSON(t,
		"-target", ts.URL, "-workers", "2", "-duration", "300ms",
		"-rate", "400", "-batch", "100",
		"-mix", "sameset=2,set=2,partition=1,batch=1",
	)
	if rep.Mode != "open" || rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("fast open loop: %+v", rep)
	}
	if n := conns.Load(); n < 1 || n > 2 {
		t.Errorf("server accepted %d connections for %d requests from 2 workers, want 1 or 2", n, rep.Requests)
	}
}

// TestClosedLoopFast: the built-in client carries the default closed
// loop too, again on one kept-alive connection per worker.
func TestClosedLoopFast(t *testing.T) {
	ts, conns := connCountingTarget(t)
	rep := runLoadJSON(t, "-target", ts.URL, "-workers", "2", "-duration", "200ms")
	if rep.Mode != "closed" || rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("fast closed loop: %+v", rep)
	}
	if n := conns.Load(); n < 1 || n > 2 {
		t.Errorf("server accepted %d connections for %d requests from 2 workers, want 1 or 2", n, rep.Requests)
	}
}
